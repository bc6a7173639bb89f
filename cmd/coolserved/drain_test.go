package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/coolsim"
	"repro/internal/daemon"
	"repro/internal/fleet"
)

// longBody is a scenario that runs far longer than any drain grace used
// here, so it is guaranteed to still be executing when the grace expires.
const longBody = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":600,"warmup":1,"grid_nx":12,"grid_ny":10}`

// TestDrainGraceExpiryCancelsRunningJob covers the drain timeout branch:
// a job still running when the grace expires is hard-canceled through
// its context, ends in the canceled state, and drain returns (the
// process would then exit cleanly).
func TestDrainGraceExpiryCancelsRunningJob(t *testing.T) {
	d, ts := testServer(t)
	id := submit(t, ts, longBody)
	waitStatus(t, ts, id, statusRunning, 30*time.Second)

	done := make(chan struct{})
	go func() { d.Drain(100 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not return after grace expiry")
	}
	v := getView(t, ts, id)
	if v.Status != statusCanceled {
		t.Fatalf("job after expired grace = %s, want canceled", v.Status)
	}
	// Intake is closed for good.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(quickBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("submit after drain = %d, want 503", resp.StatusCode)
	}
	var e struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if e.Code != fleet.CodeDraining {
		t.Fatalf("error code = %q, want %q", e.Code, fleet.CodeDraining)
	}
}

// TestSignalAwareTimeoutExpires: the shutdown context expires on its own
// after the configured duration.
func TestSignalAwareTimeoutExpires(t *testing.T) {
	sigCh := make(chan os.Signal, 1)
	ctx, cancel := daemon.SignalAwareTimeout(sigCh, 50*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("context done immediately")
	default:
	}
	select {
	case <-ctx.Done():
		if ctx.Err() != context.DeadlineExceeded {
			t.Fatalf("err = %v", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired")
	}
}

// TestSignalAwareTimeoutSecondSignal: a second operator signal
// hard-stops the drain immediately, well before the timeout.
func TestSignalAwareTimeoutSecondSignal(t *testing.T) {
	sigCh := make(chan os.Signal, 1)
	ctx, cancel := daemon.SignalAwareTimeout(sigCh, time.Hour)
	defer cancel()
	sigCh <- os.Interrupt
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not cancel the shutdown context")
	}
}

// TestRunFleetJob: worker mode's Runner executes a dispatched attempt
// on the daemon's platform cache and streams it under
// "<fleet-id>.<attempt>" (stream only: the dispatcher owns the job's
// status and report); the returned bytes match a direct run.
func TestRunFleetJob(t *testing.T) {
	d, ts := testServer(t)
	wj := fleet.WireJob{ID: "job-7", Attempt: 2, Scenario: json.RawMessage(quickBody)}
	report, err := d.RunFleetJob(context.Background(), wj)
	if err != nil {
		t.Fatalf("RunFleetJob: %v", err)
	}
	sc, err := fleet.DecodeScenario(wj.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coolsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(rep); string(report) != string(want) {
		t.Fatal("fleet report differs from a direct run")
	}
	resp, err := http.Get(ts.URL + "/v1/runs/job-7.2/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("attempt stream: %d %v", resp.StatusCode, err)
	}
	if n := bytes.Count(body, []byte("\n")); n != sc.ExpectedTicks() {
		t.Fatalf("attempt stream carried %d frames, want %d", n, sc.ExpectedTicks())
	}
	if reason := resp.Trailer.Get("X-Stream-Close-Reason"); reason != "done" {
		t.Fatalf("close reason = %q, want done", reason)
	}
	if resp, err := http.Get(ts.URL + "/v1/runs/job-7.2"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("attempt status on the worker: %v %v, want 404", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestRunFleetJobBadScenario: corrupt canonical bytes fail fast without
// touching the simulator.
func TestRunFleetJobBadScenario(t *testing.T) {
	d, _ := testServer(t)
	_, err := d.RunFleetJob(context.Background(), fleet.WireJob{
		ID: "job-8", Attempt: 1, Scenario: json.RawMessage(`{"layers":3}`),
	})
	if err == nil {
		t.Fatal("invalid scenario executed")
	}
}

// TestRunFleetJobCanceled: canceling the job context (dispatcher cancel
// or worker shutdown) surfaces as a context error the worker loop maps
// to the canceled/lost outcome.
func TestRunFleetJobCanceled(t *testing.T) {
	d, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.RunFleetJob(ctx, fleet.WireJob{
			ID: "job-9", Attempt: 1, Scenario: json.RawMessage(longBody),
		})
		errCh <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled fleet job never returned")
	}
}
