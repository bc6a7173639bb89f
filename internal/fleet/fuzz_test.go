package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeScenario: DecodeScenario never panics, and every body it
// accepts has canonical bytes that decode and canonicalize back to
// themselves — the contract that makes every retry of a job run
// byte-identical input.
func FuzzDecodeScenario(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":3,"warmup":1,"grid_nx":12,"grid_ny":10}`,
		`{"duration":0,"warmup":0,"seed":0}`,
		`{"layers":4,"cooling":"air","policy":"mig","dpm":true,"control_every":5}`,
		`{"stepping":{"mode":"adaptive","tolerance_c":0.1,"max_step_s":0.8}}`,
		`{"faults":{"pump_stuck":-1,"sensor_noise_stddev":0.5,"sensor_dropout_prob":0.25}}`,
		`{"duration":-5}`,
		`{"layers":3}`,
		`{"wokload":"gzip"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sc, err := DecodeScenario(body)
		if err != nil {
			return
		}
		canon, key, err := CanonicalScenario(sc)
		if err != nil {
			t.Fatalf("accepted body %q has no canonical form: %v", body, err)
		}
		sc2, err := DecodeScenario(canon)
		if err != nil {
			t.Fatalf("canonical bytes %s rejected: %v", canon, err)
		}
		canon2, key2, err := CanonicalScenario(sc2)
		if err != nil {
			t.Fatalf("canonical bytes %s: %v", canon, err)
		}
		if !bytes.Equal(canon, canon2) || key != key2 {
			t.Fatalf("canonical form does not round-trip:\nfirst  %s (%s)\nsecond %s (%s)", canon, key, canon2, key2)
		}
	})
}

// FuzzQueueRecovery: NewQueue over a journal file of arbitrary bytes
// never panics; a file that does not decode to the job it is named
// after is skipped and counted in corrupt_journal.
func FuzzQueueRecovery(f *testing.F) {
	for _, s := range []string{
		`{"id":"job-1","seq":1,"spec_key":"k","scenario":{"layers":2},"max_attempts":3,"state":"queued"}`,
		`{"id":"job-1","seq":1,"state":"booked","worker":"w1","attempts":[{"worker":"w1"}]}`,
		`{"id":"job-1","seq":1,"state":"executing","worker":"local","max_attempts":1,"attempts":[{"worker":"local"}]}`,
		`{"id":"job-1","seq":1,"state":"completed","report":{"max_temp_c":80}}`,
		`{"id":"job-2","seq":2,"state":"queued"}`,
		`{"id":"../job-1","state":"booked"}`,
		`{"id":"job-1"`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(QueueConfig{Dir: dir})
		if err != nil {
			t.Fatalf("NewQueue: %v", err)
		}
		var j Job
		valid := json.Unmarshal(data, &j) == nil && j.ID == "job-1"
		m := q.Snapshot()
		if want := map[bool]int{true: 0, false: 1}[valid]; m.CorruptJournal != want {
			t.Fatalf("corrupt_journal = %d, want %d", m.CorruptJournal, want)
		}
		if want := map[bool]int{true: 1, false: 0}[valid]; m.RecoveredJobs != want || m.Jobs.Total != want {
			t.Fatalf("recovered %d jobs (total %d), want %d", m.RecoveredJobs, m.Jobs.Total, want)
		}
		// The recovered queue keeps working.
		if _, err := q.Submit(json.RawMessage(`{}`), "k", SubmitOptions{}); err != nil {
			t.Fatalf("Submit after recovery: %v", err)
		}
	})
}
