// Command coolserved serves coolsim scenarios as an HTTP JSON job
// service: many clients submit runs, poll their status and stream
// per-tick samples while the simulations execute server-side.
//
// Usage:
//
//	coolserved -addr :8077 -workers 4 -grace 30s
//
// It is the standalone entry point to internal/daemon, the server
// cooldispatchd runs too: a memory-only job queue, -workers in-process
// slots (0 = NumCPU), at most -retain finished jobs kept for status and
// replay, and one attempt per run (POST /v1/runs?max_attempts=N opts in
// to retries). Run IDs are job-N. The API (see SERVICE.md):
//
//	POST   /v1/runs             submit a Scenario (JSON), returns {id}
//	GET    /v1/runs             list runs
//	GET    /v1/runs/{id}        status, and the report once done
//	GET    /v1/runs/{id}/stream follow per-tick Samples as NDJSON
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	GET    /healthz             liveness and drain state
//	GET    /v1/metrics          job counts + platform-cache hit/miss
//	POST   /v1/campaigns        submit a scenario list or sweep spec
//	GET    /v1/campaigns[/{id}] campaign status, progress and ETA
//	DELETE /v1/campaigns/{id}   cancel the remaining members
//	GET    /v1/campaigns/{id}/results  stream the aggregate (NDJSON)
//
// The server keeps a process-lifetime platform cache (-platform-cache):
// the first job on a stack shape builds the thermal grid, the solver's
// symbolic analysis and the controller tables; every later job on that
// shape warm-starts in milliseconds.
//
// With -dispatcher the daemon also registers as a fleet worker of that
// cooldispatchd and runs the jobs it is handed; attempt N of job-K
// streams at GET /v1/runs/job-K.N/stream, where the dispatcher taps it.
//
// On SIGINT/SIGTERM the server drains gracefully: intake stops (503),
// queued and running jobs get up to -grace to finish, stragglers are
// canceled (they abort within one simulated tick), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// options is the parsed command line.
type options struct {
	addr       string
	grace      time.Duration
	dispatcher string
	capacity   int
	poll       time.Duration
	daemon     daemon.Config
}

func parseFlags(args []string) options {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8077", "listen address")
		workers = fs.Int("workers", 0, "concurrent in-process runs (0 = NumCPU)")
		grace   = fs.Duration("grace", 30*time.Second, "drain timeout for queued and running jobs on shutdown")
		retain  = fs.Int("retain", 128,
			"finished jobs kept in memory for status and replay; oldest evicted beyond this (<= 0 keeps all)")
		pcache = fs.Int("platform-cache", 8,
			"stack shapes whose built artifacts (grid, solver analysis, controller tables) are kept warm; LRU-evicted beyond this (<= 0 keeps all)")
		cacheDir = fs.String("cache-dir", "",
			"directory for persisted platform artifacts (controller LUT JSON); a restarted daemon warm-starts its sweeps from here (empty = memory only)")
		resultsDir = fs.String("results-dir", "",
			"root of the durable campaign results tree (<dir>/<date>/<campaign>/run-N.json); a restarted daemon resumes campaigns from here without re-running persisted members (empty = memory only)")
		dispatcher = fs.String("dispatcher", "",
			"cooldispatchd base URL; when set the daemon also registers as a fleet worker and executes dispatched jobs (see SERVICE.md, Fleet)")
		capacity = fs.Int("fleet-capacity", 0,
			"concurrent dispatched jobs in worker mode (0 = the -workers value, else NumCPU)")
		poll       = fs.Duration("poll", 500*time.Millisecond, "dispatcher poll interval in worker mode")
		streamRing = fs.Int("stream-ring", stream.DefaultRingFrames,
			"per-run stream ring capacity in frames; late joiners can replay this much history (rings shrink to a run's expected tick count)")
		streamLag = fs.Int("stream-lag", 0,
			"frames a stream subscriber may lag before it is evicted (0 = the ring capacity)")
	)
	fs.Parse(args)
	slots := *workers
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	fleetCap := *capacity
	if fleetCap <= 0 {
		fleetCap = slots
	}
	return options{
		addr: *addr, grace: *grace, dispatcher: strings.TrimRight(*dispatcher, "/"),
		capacity: fleetCap, poll: *poll,
		daemon: daemon.Config{
			// A standalone run fails after one attempt: retrying a
			// deterministic failure only repeats it.
			Queue:         fleet.QueueConfig{MaxAttempts: 1, Retain: *retain},
			Slots:         slots,
			PlatformCache: *pcache,
			CacheDir:      *cacheDir,
			ResultsDir:    *resultsDir,
			Stream:        stream.Config{RingFrames: *streamRing, LagFrames: *streamLag},
		},
	}
}

func main() {
	o := parseFlags(os.Args[1:])
	d, err := daemon.New(o.daemon)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	}
	if nc, nr, err := d.Resume(); err != nil {
		fmt.Fprintln(os.Stderr, "coolserved: campaign resume:", err)
		os.Exit(1)
	} else if nc > 0 {
		fmt.Fprintf(os.Stderr, "coolserved: resumed %d campaigns (%d members already persisted)\n", nc, nr)
	}
	d.Start()
	srv := &http.Server{Addr: o.addr, Handler: d.Handler()}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// Worker mode: register with the dispatcher and execute fleet jobs
	// alongside the local API. stopWorker cancels the fleet loop (which
	// abandons in-flight fleet jobs: the dispatcher deregisters us and
	// requeues them) and waits for it to wind down.
	stopWorker := func() {}
	if o.dispatcher != "" {
		wctx, wcancel := context.WithCancel(context.Background())
		wk := &fleet.Worker{
			Dispatcher:   o.dispatcher,
			Addr:         o.addr,
			Capacity:     o.capacity,
			Runner:       d.RunFleetJob,
			PollInterval: o.poll,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "coolserved: "+format+"\n", args...)
			},
		}
		workerDone := make(chan struct{})
		go func() { wk.Run(wctx); close(workerDone) }()
		stopWorker = func() { wcancel(); <-workerDone }
		fmt.Fprintf(os.Stderr, "coolserved: fleet worker mode, dispatcher %s (capacity %d)\n",
			o.dispatcher, o.capacity)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "coolserved: listening on %s (%d workers)\n", o.addr, o.daemon.Slots)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "coolserved: %v — draining (grace %v)\n", sig, o.grace)
	}

	// Leave the fleet first: the dispatcher deregisters this worker and
	// requeues anything it held onto the survivors.
	stopWorker()

	// Stop intake and let queued and running jobs finish (or cancel them
	// at the grace deadline); streams observe the jobs ending and close,
	// which lets Shutdown complete.
	done := make(chan struct{})
	go func() { d.Drain(o.grace); close(done) }()
	shutCtx, cancel := daemon.SignalAwareTimeout(sigCh, o.grace+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "coolserved: shutdown:", err)
	}
	<-done
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "coolserved: drained, bye")
}
