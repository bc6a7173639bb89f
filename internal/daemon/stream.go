package daemon

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
	"repro/internal/stream"
)

var (
	errNoRun    = errors.New("no such run")
	errNoReplay = errors.New("run is settled and its stream is no longer retained")
)

// hubFor returns the broadcast hub of one run: a retained hub (local
// run, worker attempt or existing tap) or, for a job on a remote
// worker, a new hub with the tap that fills it. The tap is the point of
// proxying: however many clients follow a run here, the executing
// worker sees one stream subscriber. A settled job that never ran on a
// remote worker has nothing to replay once its hub is gone
// (errNoReplay); an unknown ID is errNoRun.
func (d *Daemon) hubFor(id string) (*stream.Hub, error) {
	d.smu.Lock()
	defer d.smu.Unlock()
	if h := d.hubs[id]; h != nil {
		return h, nil
	}
	j, err := d.q.Get(id)
	if err != nil {
		return nil, errNoRun
	}
	if j.State.Terminal() && (len(j.Attempts) == 0 || lastWorker(j) == fleet.LocalWorker) {
		return nil, errNoReplay
	}
	sc, err := fleet.DecodeScenario(j.Scenario)
	if err != nil {
		return nil, errNoRun // canonical bytes always decode
	}
	h := stream.HubFor(sc, d.cfg.Stream)
	d.registerHubLocked(id, h)
	go d.runTap(id, h)
	return h, nil
}

// lookupHub is hubFor as a campaign.HubLookup: nil when the run has no
// stream to follow.
func (d *Daemon) lookupHub(id string) *stream.Hub {
	h, _ := d.hubFor(id)
	return h
}

// localHub is hubFor for an in-process run: it reuses the hub a
// follower already registered — that hub's tap exits once it sees the
// local booking — or registers a new one. The runner publishes into and
// closes it.
func (d *Daemon) localHub(id string, sc coolsim.Scenario) *stream.Hub {
	d.smu.Lock()
	defer d.smu.Unlock()
	if h := d.hubs[id]; h != nil {
		return h
	}
	h := stream.HubFor(sc, d.cfg.Stream)
	d.registerHubLocked(id, h)
	return h
}

// registerHubLocked files a new hub and evicts the oldest closed hubs
// beyond the retention bound. Readers holding an evicted hub keep
// draining it; only late replay is lost.
func (d *Daemon) registerHubLocked(id string, h *stream.Hub) {
	d.hubs[id] = h
	d.hubOrder = append(d.hubOrder, id)
	excess := len(d.hubs) - d.hubRetain
	if excess <= 0 {
		return
	}
	kept := d.hubOrder[:0]
	for _, id := range d.hubOrder {
		if excess > 0 {
			if closed, _ := d.hubs[id].Closed(); closed {
				delete(d.hubs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	d.hubOrder = kept
}

// addStreamTotals folds every retained hub into /v1/metrics.
func (d *Daemon) addStreamTotals(t *stream.Totals) {
	d.smu.Lock()
	hubs := make([]*stream.Hub, 0, len(d.hubs))
	for _, h := range d.hubs {
		hubs = append(hubs, h)
	}
	d.smu.Unlock()
	for _, h := range hubs {
		t.Add(h.Stats())
	}
}

// lastWorker is the worker of a job's latest attempt ("" before the
// first). A settled job's Worker field is cleared; its history still
// says who holds the replay.
func lastWorker(j fleet.Job) string {
	if n := len(j.Attempts); n > 0 {
		return j.Attempts[n-1].Worker
	}
	return ""
}

func closeReasonForState(st fleet.State) stream.CloseReason {
	switch st {
	case fleet.StateCompleted:
		return stream.ReasonDone
	case fleet.StateCanceled:
		return stream.ReasonCanceled
	default:
		return stream.ReasonFailed
	}
}

// runTap fills a remote job's hub from the worker executing it. The tap
// follows the job across requeues: scenarios are deterministic, so
// attempt N+1 re-produces attempt N's frames byte for byte and the tap
// resumes the new attempt's stream at the frame it already relayed
// (?from=<hub seq>). It hands the hub over when the job is booked
// in-process, and closes it with the run's terminal reason once the
// queue agrees the job is settled.
func (d *Daemon) runTap(jobID string, h *stream.Hub) {
	terminalMisses := 0
	for {
		j, err := d.q.Get(jobID)
		if err != nil {
			h.Close(stream.ReasonFailed)
			return
		}
		worker := j.Worker
		if j.State.Terminal() {
			worker = lastWorker(j)
		}
		if worker == fleet.LocalWorker {
			return // the in-process runner publishes into and closes this hub
		}
		if worker != "" {
			if addr, ok := d.q.WorkerAddr(worker); ok {
				if d.relay(jobID, len(j.Attempts), addr, h) {
					return
				}
			}
		}
		if j.State.Terminal() {
			// Never ran: nothing to relay. Otherwise the worker is gone or
			// its replay unreachable; give the relay a few retries, then
			// settle for the queue's verdict.
			if terminalMisses++; worker == "" || terminalMisses >= 20 {
				h.Close(closeReasonForState(j.State))
				return
			}
		}
		select {
		case <-d.baseCtx.Done():
			h.Close(stream.ReasonCanceled)
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// relay streams one worker-side attempt (<id>.<attempt>) into the hub,
// starting at the frames the hub already holds. It returns true when
// the hub was closed with a terminal reason the queue confirms; false
// tells the tap to re-resolve the job and reconnect (connection error,
// the worker hasn't created the attempt yet, a mid-stream disconnect,
// or this tap lagging out of the worker's ring).
func (d *Daemon) relay(jobID string, attempt int, addr string, h *stream.Hub) bool {
	url := fmt.Sprintf("http://%s/v1/runs/%s.%d/stream?from=%d", addr, jobID, attempt, h.Seq())
	req, err := http.NewRequestWithContext(d.baseCtx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	for {
		line, err := br.ReadBytes('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			h.PublishFrame(line)
		}
		if err != nil {
			break
		}
	}
	reason, ok := stream.ParseCloseReason(resp.Trailer.Get("X-Stream-Close-Reason"))
	if !ok || reason == stream.ReasonLagged {
		// Mid-stream disconnect, or this tap lagged out of the worker's
		// ring: reconnect and resume at h.Seq().
		return false
	}
	// A failed or canceled attempt may still be retried by the fleet;
	// only a queue-terminal job ends the tap. (The completion races the
	// trailer — the next poll sees the settled state.)
	if j, err := d.q.Get(jobID); err == nil && !j.State.Terminal() {
		return false
	}
	h.Close(reason)
	return true
}

// handleStream follows one run as NDJSON, one Sample per line: the ring
// replay (or ?from=latest / ?from=N), then live frames, then the
// X-Stream-Close-Reason trailer. The bytes are the same whether the run
// executes in-process or on a worker. ?cancel_on_disconnect=1 makes the
// stream own the run: the client hanging up cancels it.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, err := d.hubFor(id)
	switch {
	case errors.Is(err, errNoReplay):
		fleet.WriteError(w, http.StatusGone, fleet.CodeGone, err.Error())
		return
	case err != nil:
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, err.Error())
		return
	}
	cancelOnDisconnect := r.URL.Query().Get("cancel_on_disconnect") == "1"
	if _, err := stream.Serve(w, r, h, stream.ServeOptions{}); err != nil && cancelOnDisconnect {
		d.cancelRun(id)
	}
}
