package fleet

import (
	"bytes"
	"encoding/json"

	"repro/coolsim"
)

// DecodeScenario parses one scenario JSON body exactly the way every
// service entry point must: over the service defaults
// (coolsim.DefaultScenario), with unknown fields rejected so a typoed
// knob fails loudly, and validated (including the fault-injection
// ranges) so a bad submission never reaches a worker.
func DecodeScenario(raw json.RawMessage) (coolsim.Scenario, error) {
	sc := coolsim.DefaultScenario()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, err
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// CanonicalScenario lowers a validated scenario to the canonical wire
// bytes journaled with the job (defaults materialized, stable field
// order — every retry of the job re-executes exactly these bytes) and
// the platform spec key that routes it on the worker ring. Decoding the
// bytes and canonicalizing again yields the same bytes.
func CanonicalScenario(sc coolsim.Scenario) (raw json.RawMessage, specKey string, err error) {
	sc = sc.Materialized()
	key, err := sc.PlatformKey()
	if err != nil {
		return nil, "", err
	}
	data, err := json.Marshal(sc)
	if err != nil {
		return nil, "", err
	}
	return data, key, nil
}
