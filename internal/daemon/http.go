package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// Handler returns the daemon's HTTP API: the client endpoints, the
// campaign endpoints and the worker protocol (see SERVICE.md).
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", d.handleSubmit)
	mux.HandleFunc("GET /v1/runs", d.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", d.handleStream)
	mux.HandleFunc("DELETE /v1/runs/{id}", d.handleCancel)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	// Member live streams resolve through the same per-run hubs as
	// GET /v1/runs/{id}/stream.
	(&campaign.API{M: d.camp, Draining: d.isDraining, Streams: d.lookupHub}).Register(mux)
	mux.HandleFunc("POST /v1/fleet/register", d.handleRegister)
	mux.HandleFunc("POST /v1/fleet/deregister", d.handleDeregister)
	mux.HandleFunc("POST /v1/fleet/poll", d.handlePoll)
	mux.HandleFunc("POST /v1/fleet/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/complete", d.handleComplete)
	return mux
}

// clientStatus maps the fleet state machine onto the client status
// words: queued, running, done, failed, canceled.
func clientStatus(st fleet.State) string {
	switch st {
	case fleet.StateQueued, fleet.StateRequeued:
		return "queued"
	case fleet.StateBooked, fleet.StateExecuting:
		return "running"
	case fleet.StateCompleted:
		return "done"
	case fleet.StateError:
		return "failed"
	case fleet.StateCanceled:
		return "canceled"
	}
	return string(st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The shared hardened decode: body size capped, unknown fields
	// rejected (a typoed knob fails loudly instead of silently simulating
	// the default), trailing garbage rejected, structured error bodies.
	sc := coolsim.DefaultScenario()
	if !fleet.DecodeJSON(w, r, 0, &sc) {
		return
	}
	if err := sc.Validate(); err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	maxAttempts := 0
	if v := r.URL.Query().Get("max_attempts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario,
				fmt.Sprintf("bad max_attempts %q (want a positive integer)", v))
			return
		}
		maxAttempts = n
	}
	priority, err := fleet.ParsePriority(r.URL.Query().Get("priority"))
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	raw, specKey, err := fleet.CanonicalScenario(sc)
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	if d.isDraining() {
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "server is draining")
		return
	}
	j, err := d.q.Submit(raw, specKey, fleet.SubmitOptions{MaxAttempts: maxAttempts, Priority: priority})
	if err != nil {
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
			fmt.Sprintf("journal write failed: %v", err))
		return
	}
	d.kick()
	writeJSON(w, http.StatusAccepted, struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}{j.ID, clientStatus(j.State)})
}

// RunView is the wire form of one run: the client status word, the
// fleet state machine with its attempt history, the report bytes
// exactly as the executing process produced them, and live progress
// while this process holds the run's hub.
type RunView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	State       string          `json:"state"`
	Scenario    json.RawMessage `json:"scenario"`
	Worker      string          `json:"worker,omitempty"`
	MaxAttempts int             `json:"max_attempts"`
	Attempts    []fleet.Attempt `json:"attempts,omitempty"`
	// Samples counts the ticks published so far (the stream's frame
	// count); TicksPerSec and EtaSeconds estimate progress while the
	// run executes.
	Samples     int             `json:"samples"`
	TicksPerSec float64         `json:"ticks_per_sec,omitempty"`
	EtaSeconds  float64         `json:"eta_seconds,omitempty"`
	Subscribers int             `json:"subscribers,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func (d *Daemon) view(j fleet.Job) RunView {
	v := RunView{
		ID: j.ID, Status: clientStatus(j.State), State: string(j.State),
		Scenario: j.Scenario, Worker: j.Worker,
		MaxAttempts: j.MaxAttempts, Attempts: j.Attempts,
		Report: j.Report, Error: j.Error,
	}
	d.smu.Lock()
	h := d.hubs[j.ID]
	d.smu.Unlock()
	if h != nil {
		st := h.Stats()
		v.Samples, v.Subscribers = int(st.Frames), st.Subscribers
		if v.Status == "running" {
			v.TicksPerSec, v.EtaSeconds = st.TicksPerSec, st.EtaSeconds
		}
	}
	return v
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := d.q.Get(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, d.view(j))
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.q.List()
	views := make([]RunView, len(jobs))
	for i, j := range jobs {
		views[i] = d.view(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := d.cancelRun(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, d.view(j))
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := d.q.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  map[bool]string{false: "ok", true: "draining"}[d.isDraining()],
		"jobs":    m.Jobs.Total,
		"workers": len(m.Workers),
	})
}

// JobCounts tallies the queue's jobs in client status words. Retained
// is every job the queue holds; Started counts the runs this process
// executed (in-process and, in worker mode, dispatched attempts).
type JobCounts struct {
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
	Done     int   `json:"done"`
	Failed   int   `json:"failed"`
	Canceled int   `json:"canceled"`
	Retained int   `json:"retained"`
	Started  int64 `json:"started"`
}

// MetricsView is the wire form of GET /v1/metrics.
type MetricsView struct {
	Jobs JobCounts `json:"jobs"`
	// Fleet is the queue's rollup: jobs per state, workers, requeues,
	// lease expiries, the attempts histogram.
	Fleet         fleet.Metrics              `json:"fleet"`
	Campaigns     campaign.Metrics           `json:"campaigns"`
	PlatformCache coolsim.PlatformCacheStats `json:"platform_cache"`
	Stepping      SteppingTotals             `json:"stepping"`
	// Streams aggregates the retained hubs: attached subscribers,
	// frames and bytes fanned out, slow-consumer evictions, ring depth.
	Streams  stream.Totals `json:"streams"`
	Draining bool          `json:"draining"`
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := MetricsView{
		Fleet:         d.q.Snapshot(),
		Campaigns:     d.camp.Metrics(),
		PlatformCache: d.pcache.Stats(),
	}
	c := v.Fleet.Jobs
	v.Jobs = JobCounts{
		Queued: c.Queued + c.Requeued, Running: c.Booked + c.Executing,
		Done: c.Completed, Failed: c.Error, Canceled: c.Canceled, Retained: c.Total,
	}
	d.mu.Lock()
	v.Jobs.Started = d.started
	v.Stepping = d.stepping
	v.Draining = d.draining
	d.mu.Unlock()
	d.addStreamTotals(&v.Streams)
	writeJSON(w, http.StatusOK, v)
}

// Worker-protocol handlers. Queue errors map to structured codes the
// worker dispatches on: unknown_worker → re-register; conflict → drop
// the stale result.

func (d *Daemon) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	id, lease, hb := d.q.Register(req.Addr, req.Capacity)
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		WorkerID:    id,
		LeaseTTLMs:  lease.Milliseconds(),
		HeartbeatMs: hb.Milliseconds(),
	})
}

func (d *Daemon) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req fleet.DeregisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	d.q.Deregister(req.WorkerID)
	d.kick() // the last worker leaving hands its jobs to the local slots
	writeJSON(w, http.StatusOK, struct{}{})
}

func (d *Daemon) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req fleet.PollRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	jobs, err := d.q.Poll(req.WorkerID, req.Slots)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.PollResponse{Jobs: jobs})
}

func (d *Daemon) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	resp, err := d.q.Heartbeat(req.WorkerID, req.Executing)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Daemon) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	var err error
	if req.Kind == "" && req.Report != nil {
		err = d.q.Complete(req.WorkerID, req.JobID, req.Report)
	} else {
		err = d.q.Fail(req.WorkerID, req.JobID, req.Error, req.Kind)
	}
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func writeQueueError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrUnknownWorker):
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeUnknownWorker, err.Error())
	case errors.Is(err, fleet.ErrUnknownJob):
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, err.Error())
	case errors.Is(err, fleet.ErrNotOwner):
		fleet.WriteError(w, http.StatusConflict, fleet.CodeConflict, err.Error())
	default:
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal, err.Error())
	}
}
