package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/coolsim"
)

// daemon is one started service process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed once the process has exited and been reaped
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startDaemon(b *bench, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(b.cfg.out, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.cfg.bin, name), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// A benchmark killed mid-run must not leave its daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, url: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// stop terminates the daemon and waits for it to exit, killing it when
// it has not drained within five seconds.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// waitHealthy polls the daemon's /healthz until it answers 200. It gives
// up at once when the process exits, which it does when another socket
// took its address between freeAddr and its own bind.
func (d *daemon) waitHealthy(ctx context.Context, c *http.Client, deadline time.Time) error {
	for {
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it became healthy (%s)", d.name, d.cmd.ProcessState)
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s did not become healthy", d.name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startHealthy starts a daemon and waits until it is healthy, starting
// it again on another address when it exits first.
func startHealthy(ctx context.Context, b *bench, c *http.Client, deadline time.Time, name string, args ...string) (*daemon, error) {
	var err error
	for try := 0; try < 3; try++ {
		var d *daemon
		if d, err = startDaemon(b, name, args...); err != nil {
			return nil, err
		}
		if err = d.waitHealthy(ctx, c, deadline); err == nil {
			return d, nil
		}
		d.stop()
		fmt.Fprintln(os.Stderr, "perfbench: service:", err)
	}
	return nil, err
}

// fleetStack is the service topology: a dispatcher that executes nothing
// itself and one worker with nproc slots.
type fleetStack struct {
	dispatcher, worker *daemon
}

func (f *fleetStack) stop() {
	f.worker.stop()
	f.dispatcher.stop()
}

// startFleet starts the topology and returns once both daemons answer
// /healthz and the worker has registered. The worker starts only once
// the dispatcher answers, so its first registration attempt succeeds
// instead of backing off for a second.
func startFleet(ctx context.Context, b *bench) (*fleetStack, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	var f fleetStack
	var err error
	if f.dispatcher, err = startHealthy(ctx, b, c, deadline, "cooldispatchd", "-local-workers", "0"); err != nil {
		return nil, err
	}
	if f.worker, err = startHealthy(ctx, b, c, deadline, "coolserved", "-dispatcher", f.dispatcher.url,
		"-workers", strconv.Itoa(nproc())); err != nil {
		f.dispatcher.stop()
		return nil, err
	}
	for {
		var m daemonMetrics
		if err := getJSON(ctx, c, f.dispatcher.url+"/v1/metrics", &m); err == nil && len(m.Fleet.Workers) > 0 {
			return &f, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			f.stop()
			return nil, errors.New("worker did not register with the dispatcher")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// daemonMetrics is the part of GET /v1/metrics the benchmark reads; both
// daemons serve it (the fleet section only on the dispatcher).
type daemonMetrics struct {
	Fleet struct {
		Workers       []json.RawMessage `json:"workers"`
		Requeues      int64             `json:"requeues"`
		LeaseExpiries int64             `json:"lease_expiries"`
		Attempts      map[string]int    `json:"attempts"`
	} `json:"fleet"`
	PlatformCache coolsim.PlatformCacheStats `json:"platform_cache"`
	Streams       struct {
		Frames    uint64 `json:"frames"`
		Bytes     uint64 `json:"bytes"`
		Evictions uint64 `json:"evictions"`
	} `json:"streams"`
}

// runView is the part of GET /v1/runs/{id} the benchmark reads.
type runView struct {
	Status   string `json:"status"`
	Attempts []struct {
		Started time.Time `json:"started"`
		Ended   time.Time `json:"ended"`
	} `json:"attempts"`
	Report json.RawMessage `json:"report"`
	Error  string          `json:"error"`
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func postJSON(ctx context.Context, c *http.Client, url string, body, v any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// oneConn is an HTTP client that holds at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// interactivePool is the seeded pool the interactive client draws from:
// 2-layer 23×20 runs of 5 s after 1 s of warm-up.
func interactivePool(seed int64) []coolsim.Scenario {
	pairs := [][2]string{{"air", "lb"}, {"max", "lb"}, {"max", "mig"}, {"var", "lb"}, {"var", "talb"}}
	workloads := coolsim.Workloads()
	r := newRand(seed, "service/interactive-pool")
	pool := make([]coolsim.Scenario, 16)
	for i := range pool {
		cp := pairs[r.IntN(len(pairs))]
		pool[i] = coolsim.Scenario{
			Layers: 2, Cooling: cp[0], Policy: cp[1], Workload: workloads[r.IntN(len(workloads))],
			Duration: 5, Warmup: 1, GridNX: 23, GridNY: 20,
			Seed: deriveSeed(seed, fmt.Sprintf("service/interactive/%d", i)),
		}
	}
	return pool
}

// bulkCampaign is the bulk client's campaign: a sweep of 4-layer 23×20
// members over cooling × policy × two seeded trace seeds. A freed worker
// slot waits for the next 500 ms poll, so a slot's throughput steps each
// time a member's run time crosses a multiple of the poll; members that
// ran about a second spread the service's rate 17 % between runs. These
// run about 0.2 s, a third of the poll even on a slow host, so every
// member takes one poll and the rate follows the fleet's booking.
func bulkCampaign(seed int64) coolsim.Campaign {
	return coolsim.Campaign{
		Name: "perfbench-bulk",
		Sweep: &coolsim.Sweep{
			Base: coolsim.Scenario{
				Layers: 4, Workload: "Web-high",
				Duration: 10, Warmup: 1, GridNX: 23, GridNY: 20,
			},
			Cooling: []string{"max", "var"},
			Policy:  []string{"lb", "talb"},
			Seeds:   []int64{deriveSeed(seed, "service/bulk/0"), deriveSeed(seed, "service/bulk/1")},
		},
	}
}

// serviceLoad is what one timed pass of the two clients observed.
type serviceLoad struct {
	mu sync.Mutex
	// interactive, per completed run (ms)
	submitMs, headersMs, firstFrameMs, reportMs, queueWaitMs, execMs []float64
	// bulk, per completed campaign
	createMs, firstResultMs, membersPerS []float64
	end                                  time.Time // the measured window's end
	// ticks counts the simulated ticks the clients received inside the
	// window, as stream frames arrive. Counting ticks instead of finished
	// runs keeps a campaign, whose results stream in member order, from
	// landing as one lump.
	ticks     int
	attempted int
	failed    int
	errs      []string // the first few operation errors
	checks    []error  // output-check failures
	// reports to check, keyed by the scenario's index in the pool
	// followed by the campaign's members
	reports map[int][]json.RawMessage
}

// fail records n failed operations; an output-check failure is recorded
// as such, not as a slow or failed operation.
func (l *serviceLoad) fail(err error, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if errors.Is(err, errCheck) {
		l.checks = append(l.checks, err)
		return
	}
	l.failed += n
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// inWindow reports whether a frame received now counts toward the rate.
func (l *serviceLoad) inWindow() bool { return time.Now().Before(l.end) }

// addTicks counts n ticks received inside the window.
func (l *serviceLoad) addTicks(n int) {
	l.mu.Lock()
	l.ticks += n
	l.mu.Unlock()
}

// rate is the simulated seconds received inside the window per second of
// window.
func (l *serviceLoad) rate(window time.Duration) float64 {
	return float64(l.ticks) * float64(tick) / window.Seconds()
}

// runLoad runs the interactive and bulk clients until the measured time
// is up; each finishes the operation it has in flight.
func runLoad(ctx context.Context, b *bench, f *fleetStack, tr *tracer,
	pool []coolsim.Scenario, camp coolsim.Campaign, members []coolsim.Scenario) *serviceLoad {
	start := time.Now()
	l := &serviceLoad{reports: map[int][]json.RawMessage{}, end: start.Add(b.deadline)}
	// client runs one closed loop on its own connection; it gives up after
	// a few failed operations rather than spin against a dead service.
	client := func(name string, opSize int, op func(c *http.Client, n int) error) {
		c := oneConn()
		defer c.CloseIdleConnections()
		errs := 0
		for n := 0; time.Since(start) < b.deadline && ctx.Err() == nil && errs < 3; n++ {
			l.mu.Lock()
			l.attempted += opSize
			l.mu.Unlock()
			if err := op(c, n); err != nil {
				l.fail(fmt.Errorf("%s: %w", name, err), opSize)
				errs++
			}
		}
	}
	choices := newRand(b.cfg.seed, "service/interactive-choices")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		client("interactive", 1, func(c *http.Client, n int) error {
			i := choices.IntN(len(pool))
			return interactiveRun(ctx, c, f.dispatcher.url, pool[i], i, l, tr, fmt.Sprintf("run-%d", n))
		})
	}()
	go func() {
		defer wg.Done()
		client("bulk", len(members), func(c *http.Client, n int) error {
			return bulkRound(ctx, c, f.dispatcher.url, camp, members, len(pool), l, tr, fmt.Sprintf("campaign-%d", n))
		})
	}()
	wg.Wait()
	return l
}

// interactiveRun submits one run, follows its stream to the end and
// fetches its report.
func interactiveRun(ctx context.Context, c *http.Client, base string, sc coolsim.Scenario, idx int,
	l *serviceLoad, tr *tracer, run string) error {
	root := tr.begin("client.run", 0, run)
	defer tr.end(root)
	t0 := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	id := tr.begin("http.submit", root, run)
	err := postJSON(ctx, c, base+"/v1/runs", sc, &sub)
	tr.end(id)
	if err != nil {
		return err
	}
	submitMs := msSince(t0)

	id = tr.begin("http.stream", root, run)
	ts := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+sub.ID+"/stream", nil)
	if err != nil {
		tr.end(id)
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		tr.end(id)
		return err
	}
	headersMs := msSince(ts)
	br := bufio.NewReader(resp.Body)
	frames, inWindow := 0, 0
	var firstMs float64
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if frames == 0 {
				firstMs = msSince(t0)
			}
			frames++
			if l.inWindow() {
				inWindow++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			tr.end(id)
			return fmt.Errorf("stream %s: %w", sub.ID, err)
		}
	}
	resp.Body.Close()
	tr.end(id)
	l.addTicks(inWindow)
	reason := resp.Trailer.Get("X-Stream-Close-Reason")
	if want := sc.ExpectedTicks(); frames != want || reason != "done" {
		return fmt.Errorf("%w: stream %s delivered %d frames (want %d), close reason %q (want done)",
			errCheck, sub.ID, frames, want, reason)
	}

	var v runView
	for {
		id = tr.begin("http.status", root, run)
		err := getJSON(ctx, c, base+"/v1/runs/"+sub.ID, &v)
		tr.end(id)
		if err != nil {
			return err
		}
		if v.Status == "done" || v.Status == "failed" || v.Status == "canceled" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	doneAt := time.Now()
	reportMs := float64(doneAt.Sub(t0).Nanoseconds()) / 1e6
	if v.Status != "done" || len(v.Attempts) == 0 {
		return fmt.Errorf("run %s ended %s: %s", sub.ID, v.Status, v.Error)
	}
	a := v.Attempts[len(v.Attempts)-1]
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitMs = append(l.submitMs, submitMs)
	l.headersMs = append(l.headersMs, headersMs)
	l.firstFrameMs = append(l.firstFrameMs, firstMs)
	l.reportMs = append(l.reportMs, reportMs)
	l.queueWaitMs = append(l.queueWaitMs, float64(v.Attempts[0].Started.Sub(t0).Nanoseconds())/1e6)
	l.execMs = append(l.execMs, float64(a.Ended.Sub(a.Started).Nanoseconds())/1e6)
	l.reports[idx] = append(l.reports[idx], v.Report)
	return nil
}

// bulkRound submits the campaign, follows its member-tagged tick stream
// until every member is done, then reads its results to the last line.
// Member i's report is recorded under index first+i.
func bulkRound(ctx context.Context, c *http.Client, base string, camp coolsim.Campaign, members []coolsim.Scenario,
	first int, l *serviceLoad, tr *tracer, run string) error {
	root := tr.begin("client.campaign", 0, run)
	defer tr.end(root)
	t0 := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	id := tr.begin("campaign.create", root, run)
	err := postJSON(ctx, c, base+"/v1/campaigns", camp, &created)
	tr.end(id)
	if err != nil {
		return err
	}
	createMs := msSince(t0)

	// Ticks per member, counted as they stream; the stream can skip a
	// member that finished before it was attached, and its ticks are then
	// counted when its results line arrives.
	streamed := make([]int, len(members))
	var firstMs float64
	id = tr.begin("campaign.stream", root, run)
	err = readLines(ctx, c, base+"/v1/campaigns/"+created.ID+"/stream", func(line []byte) {
		if firstMs == 0 {
			firstMs = msSince(t0)
		}
		if m, ok := memberOf(line); ok && m < len(members) {
			streamed[m]++
			if l.inWindow() {
				l.addTicks(1)
			}
		}
	})
	tr.end(id)
	if err != nil {
		return err
	}

	var lines [][]byte
	id = tr.begin("campaign.results", root, run)
	err = readLines(ctx, c, base+"/v1/campaigns/"+created.ID+"/results", func(line []byte) {
		if i := len(lines); i < len(members) && l.inWindow() {
			l.addTicks(max(members[i].ExpectedTicks()-streamed[i], 0))
		}
		lines = append(lines, bytes.Clone(line))
	})
	tr.end(id)
	if err != nil {
		return err
	}
	el := time.Since(t0)
	if len(lines) != len(members) {
		return fmt.Errorf("%w: campaign %s streamed %d results, want %d", errCheck, created.ID, len(lines), len(members))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.createMs = append(l.createMs, createMs)
	l.firstResultMs = append(l.firstResultMs, firstMs)
	l.membersPerS = append(l.membersPerS, float64(len(members))/el.Seconds())
	for i, line := range lines {
		l.reports[first+i] = append(l.reports[first+i], json.RawMessage(line))
	}
	return nil
}

// readLines GETs an NDJSON stream and calls fn with each complete line,
// without its newline. The line is only valid during the call.
func readLines(ctx context.Context, c *http.Client, url string, fn func([]byte)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Longer than the buffer: finish the line the slow way.
			rest, err2 := br.ReadBytes('\n')
			line, err = append(bytes.Clone(line), rest...), err2
		}
		if len(line) > 0 && line[len(line)-1] == '\n' {
			fn(line[:len(line)-1])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("GET %s: %w", url, err)
		}
	}
}

// memberOf parses the member index of a campaign stream line,
// {"member":N,"sample":...}.
func memberOf(line []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"member":`))
	if !ok {
		return 0, false
	}
	n, _, ok := bytes.Cut(rest, []byte(","))
	if !ok {
		return 0, false
	}
	m, err := strconv.Atoi(string(n))
	return m, err == nil
}

// warmUp runs one short run per platform the load uses, building
// every artifact the load's runs need, and waits for them.
func warmUp(ctx context.Context, base string, scs []coolsim.Scenario) error {
	pre, err := prebuildScenarios(scs)
	if err != nil {
		return err
	}
	c := &http.Client{Timeout: 60 * time.Second}
	var ids []string
	for _, sc := range pre {
		sc.Duration, sc.Warmup = 0.5, 0.5
		var sub struct {
			ID string `json:"id"`
		}
		if err := postJSON(ctx, c, base+"/v1/runs", sc, &sub); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		for {
			var v runView
			if err := getJSON(ctx, c, base+"/v1/runs/"+id, &v); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if v.Status == "done" {
				break
			}
			if v.Status == "failed" || v.Status == "canceled" {
				return fmt.Errorf("warm-up run %s %s: %s", id, v.Status, v.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func runService(ctx context.Context, b *bench) (err error) {
	defer func() {
		if err != nil || len(b.checkErrs) > 0 {
			printLogTails(b)
		}
	}()
	for _, name := range []string{"cooldispatchd", "coolserved"} {
		if _, err := os.Stat(filepath.Join(b.cfg.bin, name)); err != nil {
			return fmt.Errorf("daemon binary: %w", err)
		}
	}
	var tr *tracer
	if b.cfg.trace {
		tr = newTracer()
		b.tr = tr
	}
	pool := interactivePool(b.cfg.seed)
	camp := bulkCampaign(b.cfg.seed)
	members, err := camp.Expand()
	if err != nil {
		return err
	}
	all := append(slices.Clone(pool), members...)
	// Set-up, three times: start the topology, wait for health and
	// registration, warm each platform with one run. The last one stays.
	var f *fleetStack
	var setup []float64
	for round := 0; round < 3; round++ {
		if f != nil {
			f.stop()
		}
		t := time.Now()
		id := tr.begin("setup.round", 0, "")
		if f, err = startFleet(ctx, b); err != nil {
			tr.end(id)
			return err
		}
		err = warmUp(ctx, f.dispatcher.url, all)
		tr.end(id)
		if err != nil {
			f.stop()
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	defer f.stop()
	b.setStats("setup_s", "s", setup, median)

	for _, d := range []*daemon{f.dispatcher, f.worker} {
		if err := resetPeakRSS(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
			return err
		}
	}
	mc := &http.Client{Timeout: 5 * time.Second}
	var d0, w0, d1, w1 daemonMetrics
	if err := getJSON(ctx, mc, f.dispatcher.url+"/v1/metrics", &d0); err != nil {
		return err
	}
	if err := getJSON(ctx, mc, f.worker.url+"/v1/metrics", &w0); err != nil {
		return err
	}
	load := runLoad(ctx, b, f, nil, pool, camp, members)
	if err := getJSON(ctx, mc, f.dispatcher.url+"/v1/metrics", &d1); err != nil {
		return err
	}
	if err := getJSON(ctx, mc, f.worker.url+"/v1/metrics", &w1); err != nil {
		return err
	}
	var rss float64
	for _, d := range []*daemon{f.dispatcher, f.worker} {
		mb, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return err
		}
		rss += mb
	}
	b.set("peak_rss_mb", "MB", rss).Note = "dispatcher + worker, over the timed region"
	b.count(load)
	if load.ticks == 0 {
		return errors.New("service: no tick streamed within the measured time")
	}
	simRate := load.rate(b.deadline)
	b.setStats("sim_s_per_host_s", "s/s", []float64{simRate}, median)
	b.metrics["sim_s_per_host_s"].Note = "one sample: ticks both clients received within the measured time"
	b.setStats("first_frame_ms_p50", "ms", load.firstFrameMs, median)
	b.setStats("first_frame_ms_p90", "ms", load.firstFrameMs, p90)
	b.setStats("report_ms_p50", "ms", load.reportMs, median)
	b.setStats("report_ms_p90", "ms", load.reportMs, p90)
	b.setStats("campaign_members_per_s", "1/s", load.membersPerS, median)
	b.set("error_ratio", "ratio", float64(b.failed)/float64(b.attempted)).Note =
		fmt.Sprintf("%d failed of %d attempted", b.failed, b.attempted)

	if !b.cfg.trace {
		return b.checkService(ctx, all, load)
	}

	b.setStats("http.submit_ms_p50", "ms", load.submitMs, median)
	b.setStats("http.submit_ms_p90", "ms", load.submitMs, p90)
	b.setStats("http.stream_headers_ms_p50", "ms", load.headersMs, median)
	b.setStats("fleet.queue_wait_ms_p50", "ms", load.queueWaitMs, median)
	b.setStats("fleet.queue_wait_ms_p90", "ms", load.queueWaitMs, p90)
	b.setStats("fleet.exec_ms_p50", "ms", load.execMs, median)
	b.setStats("campaign.create_ms", "ms", load.createMs, median)
	b.setStats("campaign.first_result_ms", "ms", load.firstResultMs, median)
	jobs, attempts := 0, 0
	for k, n := range d1.Fleet.Attempts {
		a, _ := strconv.Atoi(k)
		n -= d0.Fleet.Attempts[k]
		jobs += n
		attempts += a * n
	}
	if jobs > 0 {
		b.set("fleet.attempts_per_job", "ratio", float64(attempts)/float64(jobs))
	} else {
		b.unavailable("fleet.attempts_per_job", "ratio", "no job ended")
	}
	b.set("fleet.requeues", "count", float64(d1.Fleet.Requeues-d0.Fleet.Requeues))
	b.set("fleet.lease_expiries", "count", float64(d1.Fleet.LeaseExpiries-d0.Fleet.LeaseExpiries))
	b.set("stream.frames", "count", float64(d1.Streams.Frames-d0.Streams.Frames+w1.Streams.Frames-w0.Streams.Frames))
	b.set("stream.bytes", "bytes", float64(d1.Streams.Bytes-d0.Streams.Bytes+w1.Streams.Bytes-w0.Streams.Bytes))
	b.set("stream.evictions", "count", float64(d1.Streams.Evictions-d0.Streams.Evictions+w1.Streams.Evictions-w0.Streams.Evictions))
	if ev := b.metrics["stream.evictions"].Value; ev != 0 {
		b.check(fmt.Errorf("stream: %v subscribers evicted", ev))
	}
	b.setPlatformDelta(w0.PlatformCache, w1.PlatformCache)
	b.set("coolsim.batched_solves", "count", 0).Note = "runs execute solo on the worker"
	b.set("coolsim.batch_sweeps", "count", 0).Note = "runs execute solo on the worker"

	// Traced pass of the same load, for spans and the overhead.
	traced := runLoad(ctx, b, f, tr, pool, camp, members)
	b.count(traced)
	b.setOverhead([]float64{simRate}, []float64{traced.rate(b.deadline)}, "")
	if err := b.checkService(ctx, all, load, traced); err != nil {
		return err
	}
	return b.tracedServiceSessions(ctx, all)
}

// printLogTails copies the last lines of both daemons' logs to standard
// error, so a failed run shows what the service said.
func printLogTails(b *bench) {
	for _, name := range []string{"cooldispatchd", "coolserved"} {
		buf, err := os.ReadFile(filepath.Join(b.cfg.out, name+".log"))
		if err != nil {
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
		fmt.Fprintf(os.Stderr, "perfbench: last lines of %s.log:\n", name)
		for _, l := range lines[max(len(lines)-15, 0):] {
			fmt.Fprintf(os.Stderr, "  %s\n", l)
		}
	}
}

// count adds a load's operations, failures and check failures to the run.
func (b *bench) count(l *serviceLoad) {
	b.attempted += l.attempted
	b.failed += l.failed
	for _, e := range l.errs {
		fmt.Fprintln(os.Stderr, "perfbench: service:", e)
	}
	for _, err := range l.checks {
		b.check(err)
	}
}

// checkService compares every report the service returned with the
// in-process coolsim.Run report of the same scenario.
func (b *bench) checkService(ctx context.Context, scs []coolsim.Scenario, loads ...*serviceLoad) error {
	refs, err := references(ctx, scs)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	for _, l := range loads {
		for i, reps := range l.reports {
			for _, raw := range reps {
				var r coolsim.Report
				if err := json.Unmarshal(raw, &r); err != nil {
					b.check(fmt.Errorf("service scenario %d: report: %w", i, err))
					continue
				}
				b.check(sameReport(fmt.Sprintf("service scenario %d", i), &r, refs[i], false))
			}
		}
	}
	return nil
}

// tracedServiceSessions steps the service's scenarios through in-process
// sessions, for the sim-layer timings, and replays them through the
// lower layers.
func (b *bench) tracedServiceSessions(ctx context.Context, scs []coolsim.Scenario) error {
	pc, secs, perKey, err := primeCaches(ctx, b.tr, scs, 1)
	if err != nil {
		return err
	}
	b.setPrebuild(secs, perKey)
	b.metrics["platform.prebuild_ms"].Note = "in-process build of the platforms the service ran"
	var newMs, firstMs, stepMs []float64
	var runs []layerRun
	var macro, refine, solves, ticks int
	for i, sc := range scs {
		label := fmt.Sprintf("service/%d", i)
		log := newTickLog(sc.ExpectedTicks(), sc.Layers)
		id := b.tr.begin("sim.run", 0, label)
		var st sessionTimes
		r, err := stepSession(ctx, b.tr, id, label, sc, pc, 0, log, &st)
		b.tr.end(id)
		if err != nil {
			return err
		}
		newMs = append(newMs, st.newMs)
		firstMs = append(firstMs, st.stepsMs[0])
		stepMs = append(stepMs, st.stepsMs...)
		macro, refine, solves, ticks = macro+r.MacroSteps, refine+r.Refinements, solves+r.ThermalSolves, ticks+r.BaseTicks
		runs = append(runs, layerRun{label: label, sc: sc, log: log,
			refits: r.Refits, solves: r.ThermalSolves, stepsMs: st.stepsMs})
	}
	b.setStats("sim.session_new_ms", "ms", newMs, median)
	b.setStats("sim.first_step_ms", "ms", firstMs, median)
	b.setStats("sim.step_ms_p50", "ms", stepMs, median)
	b.setStats("sim.step_ms_p90", "ms", stepMs, p90)
	b.set("stepper.macro_steps", "count", float64(macro))
	b.set("stepper.refinements", "count", float64(refine))
	b.set("stepper.solves_per_tick", "ratio", float64(solves)/float64(max(ticks, 1)))
	b.unavailable("sim.alloc_bytes_per_step", "bytes", "allocations happen in the worker process")
	b.unavailable("go.gc_cycles", "count", "collections happen in the worker process")
	return probeLayers(ctx, b, pc, runs, "4l-liquid-23x20")
}
