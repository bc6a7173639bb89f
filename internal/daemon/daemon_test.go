package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

const quickBody = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":3,"warmup":1,"grid_nx":12,"grid_ny":10}`

// serve starts d's loops and serves it; cleanup drains it.
func serve(t *testing.T, d *Daemon) *httptest.Server {
	t.Helper()
	d.Start()
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		d.Drain(0)
	})
	return ts
}

func newDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func submit(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v RunView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	return v.ID
}

func waitStatus(t *testing.T, base, id, want string, timeout time.Duration) RunView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var v RunView
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		v = RunView{}
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Status == want {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s stuck at %q (%s), want %q", id, v.Status, v.State, want)
	return v
}

// getStream follows a run's stream, failing the test if no response
// arrives within 5 s (a stream nothing will ever close hangs forever).
func getStream(t *testing.T, base, id string) (status int, body []byte) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	return resp.StatusCode, body
}

// TestStreamSettledLocalJobAfterRestart: a job run in-process and
// settled in an earlier life of a journaled daemon has no replay in the
// new process. Following it answers 410 Gone at once instead of a
// stream nothing will ever close.
func TestStreamSettledLocalJobAfterRestart(t *testing.T) {
	dir := t.TempDir()
	d1 := newDaemon(t, Config{Queue: fleet.QueueConfig{Dir: dir}})
	ts1 := serve(t, d1)
	id := submit(t, ts1.URL, quickBody)
	waitStatus(t, ts1.URL, id, "done", 30*time.Second)
	if code, _ := getStream(t, ts1.URL, id); code != http.StatusOK {
		t.Fatalf("first life: stream = %d, want 200", code)
	}
	ts1.Close()
	d1.Drain(0)

	ts2 := serve(t, newDaemon(t, Config{Queue: fleet.QueueConfig{Dir: dir}}))
	waitStatus(t, ts2.URL, id, "done", time.Second)
	if code, body := getStream(t, ts2.URL, id); code != http.StatusGone {
		t.Fatalf("restarted: stream = %d %s, want 410", code, body)
	}
	if code, _ := getStream(t, ts2.URL, "job-99"); code != http.StatusNotFound {
		t.Fatalf("unknown run: stream = %d, want 404", code)
	}
}

// TestStreamEvictedLocalJob: once a settled local job's hub leaves the
// retention bound, following it answers 410 Gone; the retained newer
// job still replays in full.
func TestStreamEvictedLocalJob(t *testing.T) {
	d := newDaemon(t, Config{})
	d.hubRetain = 1
	ts := serve(t, d)
	a := submit(t, ts.URL, quickBody)
	waitStatus(t, ts.URL, a, "done", 30*time.Second)
	b := submit(t, ts.URL, quickBody)
	vb := waitStatus(t, ts.URL, b, "done", 30*time.Second)
	if code, _ := getStream(t, ts.URL, a); code != http.StatusGone {
		t.Fatalf("evicted run: stream = %d, want 410", code)
	}
	code, body := getStream(t, ts.URL, b)
	if n := strings.Count(string(body), "\n"); code != http.StatusOK || n == 0 || n != vb.Samples {
		t.Fatalf("retained run: stream = %d with %d frames, want 200 with %d", code, n, vb.Samples)
	}
}

// TestHubRetentionFollowsQueueRetention: a daemon that keeps more
// finished jobs than the default hub bound keeps a replay for each.
func TestHubRetentionFollowsQueueRetention(t *testing.T) {
	if got := newDaemon(t, Config{}).hubRetain; got != streamRetain {
		t.Fatalf("default hub retention = %d, want %d", got, streamRetain)
	}
	if got := newDaemon(t, Config{Queue: fleet.QueueConfig{Retain: 128}}).hubRetain; got != 128 {
		t.Fatalf("hub retention with Retain 128 = %d, want 128", got)
	}
}

// TestSubmissionsWakeBooker: with the booker's tick an hour away,
// submissions, freed slots and campaign fan-outs still start jobs at
// once.
func TestSubmissionsWakeBooker(t *testing.T) {
	d := newDaemon(t, Config{Slots: 1})
	d.bookEvery = time.Hour
	ts := serve(t, d)
	a := submit(t, ts.URL, quickBody)
	b := submit(t, ts.URL, quickBody) // waits for a's slot
	waitStatus(t, ts.URL, a, "done", 30*time.Second)
	waitStatus(t, ts.URL, b, "done", 30*time.Second)

	spec := `{"name":"wake","scenarios":[` + quickBody + `]}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("campaign: %d", resp.StatusCode)
	}
	// Create submits the member as job-3 and its Notify wakes the
	// booker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/job-3")
		if err != nil {
			t.Fatal(err)
		}
		var v RunView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign member never ran: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournaledDrainLeavesJobs: a journaled daemon books nothing new
// while draining; a waiting job stays queued for the next process.
func TestJournaledDrainLeavesJobs(t *testing.T) {
	d := newDaemon(t, Config{Queue: fleet.QueueConfig{Dir: t.TempDir()}})
	ts := serve(t, d)
	long := submit(t, ts.URL, strings.Replace(quickBody, `"duration":3`, `"duration":600`, 1))
	waitStatus(t, ts.URL, long, "running", 30*time.Second)
	waiting := submit(t, ts.URL, quickBody)
	d.Drain(100 * time.Millisecond)
	j, err := d.Queue().Get(waiting)
	if err != nil || j.State != fleet.StateQueued || len(j.Attempts) != 0 {
		t.Fatalf("waiting job after drain: %+v %v", j, err)
	}
	if j, _ := d.Queue().Get(long); j.State != fleet.StateRequeued {
		t.Fatalf("interrupted job after drain = %s, want requeued for the next process", j.State)
	}
}
