// Package daemon is the simulation service behind both cmd/coolserved
// and cmd/cooldispatchd: one HTTP server over a fleet.Queue. It owns
// the client API (runs, campaigns, streams, metrics), the
// worker protocol under /v1/fleet/, in-process execution slots and the
// per-run broadcast hubs.
//
// Every submitted run is a queue job. Fleet workers (coolserved
// -dispatcher) pull jobs over the worker protocol; while none is
// reachable, the daemon's own slots book and run them. A standalone
// coolserved is therefore just a daemon with a memory-only queue and
// NumCPU slots, and cooldispatchd one with a journaled queue and one
// slot. A daemon in worker mode also runs each pulled job through
// RunFleetJob, which serves the attempt's ticks at
// GET /v1/runs/<job>.<attempt>/stream for the dispatcher's tap.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// Config assembles one daemon.
type Config struct {
	// Queue configures the job queue: memory-only or journaled (Dir),
	// leases, retries and retention.
	Queue fleet.QueueConfig
	// Slots bounds concurrent in-process runs (≤ 0 means 1). The slots
	// book jobs only while no fleet worker is reachable.
	Slots int
	// PlatformCache bounds the stack shapes kept warm (≤ 0 keeps all);
	// CacheDir persists platform artifacts across restarts (empty =
	// memory only).
	PlatformCache int
	CacheDir      string
	// ResultsDir roots the durable campaign results tree (empty =
	// memory only).
	ResultsDir string
	// Stream sizes each run's broadcast hub.
	Stream stream.Config
}

// Daemon is one running service. Build it with New, restore campaigns
// with Resume, start its loops with Start, serve Handler, and stop it
// with Drain.
type Daemon struct {
	cfg       Config
	q         *fleet.Queue
	journaled bool
	pcache    *coolsim.PlatformCache
	camp      *campaign.Manager

	baseCtx context.Context
	abort   context.CancelFunc
	// bookEvery ticks the in-process booker and the campaign
	// reconciler; submissions and freed slots wake the booker at once.
	bookEvery time.Duration
	wake      chan struct{} // wakes the booker
	slots     chan struct{} // one token per in-process run

	// smu guards the hub registry: the broadcast hubs of local runs,
	// dispatcher-side taps of remote runs and worker-side attempts.
	smu       sync.Mutex
	hubs      map[string]*stream.Hub
	hubOrder  []string
	hubRetain int

	mu       sync.Mutex
	draining bool
	closed   bool                          // drain is over: no more bookings
	local    map[string]context.CancelFunc // in-process runs by job ID
	wg       sync.WaitGroup                // in-process runs and loops
	started  int64                         // runs that entered execution
	stepping SteppingTotals
}

// SteppingTotals sums the stepping-engine counters of every run this
// process completed, so operators can see how much work adaptive runs
// saved (macro_ticks against base_ticks).
type SteppingTotals struct {
	BaseTicks     int64 `json:"base_ticks"`
	MacroSteps    int64 `json:"macro_steps"`
	MacroTicks    int64 `json:"macro_ticks"`
	Refinements   int64 `json:"refinements"`
	ThermalSolves int64 `json:"thermal_solves"`
}

func (t *SteppingTotals) add(r *coolsim.Report) {
	t.BaseTicks += int64(r.BaseTicks)
	t.MacroSteps += int64(r.MacroSteps)
	t.MacroTicks += int64(r.MacroTicks)
	t.Refinements += int64(r.Refinements)
	t.ThermalSolves += int64(r.ThermalSolves)
}

// streamRetain is the least number of closed hubs kept for late
// replay; a larger Queue.Retain raises it. Live hubs are never evicted.
const streamRetain = 64

// New builds a daemon: its queue (recovering a journal in
// Config.Queue.Dir), platform cache and campaign manager.
func New(cfg Config) (*Daemon, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	q, err := fleet.NewQueue(cfg.Queue)
	if err != nil {
		return nil, err
	}
	repo, err := campaign.NewRepo(cfg.ResultsDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:       cfg,
		q:         q,
		journaled: cfg.Queue.Dir != "",
		pcache:    coolsim.NewPlatformCacheDir(cfg.PlatformCache, cfg.CacheDir),
		baseCtx:   ctx,
		abort:     cancel,
		bookEvery: 100 * time.Millisecond,
		wake:      make(chan struct{}, 1),
		slots:     make(chan struct{}, cfg.Slots),
		hubs:      map[string]*stream.Hub{},
		hubRetain: max(streamRetain, cfg.Queue.Retain),
		local:     map[string]context.CancelFunc{},
	}
	d.camp = campaign.NewManager(campaign.FleetBackend{Q: q, Notify: d.kick}, repo, nil)
	return d, nil
}

// Queue returns the daemon's job queue.
func (d *Daemon) Queue() *fleet.Queue { return d.q }

// Resume restores the campaigns persisted under Config.ResultsDir and
// reconciles them once, before any new job can take an ID a stale
// member assignment still names. It returns the campaigns and the
// members whose results were already on disk.
func (d *Daemon) Resume() (campaigns, results int, err error) {
	campaigns, results, err = d.camp.Resume()
	if err == nil {
		d.camp.Reconcile()
	}
	return campaigns, results, err
}

// Start launches the background loops: the queue sweep (lease expiry,
// unreachable workers), the in-process booker and the campaign
// reconciler. Drain stops them and waits for them.
func (d *Daemon) Start() {
	lease := d.cfg.Queue.LeaseTTL
	if lease <= 0 {
		lease = fleet.DefaultLeaseTTL
	}
	d.wg.Add(3)
	go d.every(max(lease/4, 50*time.Millisecond), nil, d.q.Sweep)
	go d.every(d.bookEvery, d.wake, d.bookLocal)
	go d.every(d.bookEvery, nil, d.camp.Reconcile)
}

// every calls fn on each tick of period and on each wake, until the
// daemon shuts down.
func (d *Daemon) every(period time.Duration, wake <-chan struct{}, fn func()) {
	defer d.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-d.baseCtx.Done():
			return
		case <-t.C:
		case <-wake:
		}
		fn()
	}
}

// kick wakes the booker without blocking.
func (d *Daemon) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// bookLocal fills free slots with eligible jobs while no fleet worker
// is reachable. A journaled queue books nothing new once draining (its
// jobs carry over to the next process); a memory-only one keeps
// starting its waiting jobs until the drain grace is over.
func (d *Daemon) bookLocal() {
	for {
		select {
		case d.slots <- struct{}{}:
		default:
			return // every slot busy
		}
		d.mu.Lock()
		var j *fleet.Job
		if !d.closed && !(d.draining && d.journaled) {
			j = d.q.BookLocal()
		}
		if j == nil {
			d.mu.Unlock()
			<-d.slots
			return
		}
		ctx, cancel := context.WithCancel(d.baseCtx)
		d.local[j.ID] = cancel
		d.wg.Add(1)
		d.mu.Unlock()
		go d.runLocal(ctx, cancel, *j)
	}
}

// runLocal runs one booked job in-process, reporting through the same
// queue transitions a remote worker would.
func (d *Daemon) runLocal(ctx context.Context, cancel context.CancelFunc, j fleet.Job) {
	defer d.wg.Done()
	defer cancel()
	var hub *stream.Hub
	report, err, panicked := func() (report json.RawMessage, err error, panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		sc, err := fleet.DecodeScenario(j.Scenario)
		if err != nil {
			return nil, err, false
		}
		hub = d.localHub(j.ID, sc)
		report, err = d.runScenario(ctx, sc, hub.Publish)
		return report, err, false
	}()
	switch {
	case panicked:
		_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomePanic)
	case err == nil:
		_ = d.q.Complete(fleet.LocalWorker, j.ID, report)
	case isCanceled(err):
		_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeCanceled)
	default:
		_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeError)
	}
	d.mu.Lock()
	delete(d.local, j.ID)
	d.mu.Unlock()
	<-d.slots
	d.kick()
	// Close after the queue transition so a follower that wakes on the
	// close sees the settled job.
	if hub != nil {
		hub.Close(closeReason(err))
	}
}

// RunFleetJob is the fleet.Runner of worker mode: it runs one
// dispatched attempt on the daemon's platform cache and publishes its
// ticks into a hub served at GET /v1/runs/<job>.<attempt>/stream, the
// URL the dispatcher's tap reads. The attempt has no status or report
// here; the dispatcher that owns the job serves those. A panic closes
// the hub as failed and propagates to the worker loop, which reports
// it.
func (d *Daemon) RunFleetJob(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
	sc, err := fleet.DecodeScenario(wj.Scenario)
	if err != nil {
		return nil, err
	}
	hub := stream.HubFor(sc, d.cfg.Stream)
	d.smu.Lock()
	d.registerHubLocked(fmt.Sprintf("%s.%d", wj.ID, wj.Attempt), hub)
	d.smu.Unlock()
	reason := stream.ReasonFailed
	defer func() { hub.Close(reason) }()
	report, err := d.runScenario(ctx, sc, hub.Publish)
	reason = closeReason(err)
	return report, err
}

// runScenario runs one scenario on the daemon's platform cache, handing
// each tick to observe, and returns the report JSON.
func (d *Daemon) runScenario(ctx context.Context, sc coolsim.Scenario, observe func(*coolsim.Sample)) (json.RawMessage, error) {
	d.mu.Lock()
	d.started++
	d.mu.Unlock()
	rep, err := coolsim.Run(ctx, sc, coolsim.WithPlatformCache(d.pcache), coolsim.WithObserver(observe))
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.stepping.add(rep)
	d.mu.Unlock()
	return json.Marshal(rep)
}

func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// closeReason maps a run's outcome to the reason its stream ends with.
func closeReason(err error) stream.CloseReason {
	switch {
	case err == nil:
		return stream.ReasonDone
	case isCanceled(err):
		return stream.ReasonCanceled
	default:
		return stream.ReasonFailed
	}
}

// cancelRun cancels a job in the queue. A waiting job resolves at once
// (its followers are released); one running in-process is aborted
// through its context; one on a remote worker learns of the cancel on
// its next heartbeat.
func (d *Daemon) cancelRun(id string) (fleet.Job, error) {
	j, err := d.q.Cancel(id)
	if err != nil {
		return fleet.Job{}, err
	}
	switch {
	case j.State == fleet.StateCanceled:
		d.smu.Lock()
		h := d.hubs[id]
		d.smu.Unlock()
		if h != nil {
			h.Close(stream.ReasonCanceled)
		}
	case j.Worker == fleet.LocalWorker && j.CancelRequested:
		d.mu.Lock()
		cancel := d.local[id]
		d.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return j, nil
}

// Drain stops intake and waits up to grace for in-process work, then
// stops the daemon. A memory-only queue keeps starting its waiting jobs
// meanwhile and, once grace is over, cancels everything still waiting
// or running in-process (status canceled). A journaled queue books
// nothing new and leaves its jobs to the next process: runs cut short
// here are requeued by restart recovery. Remote workers just lose their
// dispatcher.
func (d *Daemon) Drain(grace time.Duration) {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	deadline := time.Now().Add(grace)
	for !d.idle() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	if !d.journaled {
		for _, j := range d.q.List() {
			if !j.State.Terminal() && (j.Worker == "" || j.Worker == fleet.LocalWorker) {
				d.cancelRun(j.ID)
			}
		}
	}
	d.abort()
	d.wg.Wait()
}

// idle reports whether a draining daemon has no in-process work left.
func (d *Daemon) idle() bool {
	d.mu.Lock()
	running := len(d.local)
	d.mu.Unlock()
	if running > 0 {
		return false
	}
	if d.journaled || d.q.ReachableWorkers() > 0 {
		return true
	}
	c := d.q.Snapshot().Jobs
	return c.Queued+c.Requeued == 0
}
