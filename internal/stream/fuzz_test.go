package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/coolsim"
)

// nullableSample mirrors coolsim.Sample field for field, with every float
// behind a pointer: encoding/json writes a nil one as null, which is how
// AppendSample writes a non-finite float.
type nullableSample struct {
	Time       *float64   `json:"t_s"`
	Measured   bool       `json:"measured"`
	TmaxC      *float64   `json:"tmax_c"`
	LayerMaxC  []*float64 `json:"layer_max_c"`
	LayerMeanC []*float64 `json:"layer_mean_c"`
	Setting    int        `json:"setting"`
	FlowMLMin  *float64   `json:"flow_mlmin"`
	ChipPowerW *float64   `json:"chip_w"`
	PumpPowerW *float64   `json:"pump_w"`
	Migrations int64      `json:"migrations"`
	Refits     int        `json:"refits"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func nullable(v float64) *float64 {
	if !finite(v) {
		return nil
	}
	return &v
}

func nullables(vs []float64) []*float64 {
	if vs == nil {
		return nil
	}
	out := make([]*float64, len(vs))
	for i, v := range vs {
		out[i] = nullable(v)
	}
	return out
}

// FuzzAppendSample: for a sample of arbitrary float bit patterns, ints
// and layer-slice lengths, a frame of finite floats is byte-identical to
// encoding/json's; otherwise it is valid JSON with null exactly at the
// non-finite fields. Layer lengths below 0 mean a nil slice; the layer
// values cycle through layerBits read as little-endian float64s.
func FuzzAppendSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, tBits, tmaxBits, flowBits, chipBits, pumpBits uint64,
		measured bool, setting int, migrations int64, refits int,
		nMax, nMean int, layerBits []byte) {
		var pool []float64
		for i := 0; i+8 <= len(layerBits); i += 8 {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(layerBits[i:])))
		}
		next := 0
		layer := func(n int) []float64 {
			if n < 0 {
				return nil
			}
			vs := make([]float64, n%9)
			for i := range vs {
				if len(pool) > 0 {
					vs[i] = pool[next%len(pool)]
				}
				next++
			}
			return vs
		}
		smp := coolsim.Sample{
			Time: math.Float64frombits(tBits), Measured: measured,
			TmaxC:     math.Float64frombits(tmaxBits),
			LayerMaxC: layer(nMax), LayerMeanC: layer(nMean),
			Setting: setting, FlowMLMin: math.Float64frombits(flowBits),
			ChipPowerW: math.Float64frombits(chipBits),
			PumpPowerW: math.Float64frombits(pumpBits),
			Migrations: migrations, Refits: refits,
		}
		got := AppendSample(nil, &smp)

		allFinite := finite(smp.Time) && finite(smp.TmaxC) && finite(smp.FlowMLMin) &&
			finite(smp.ChipPowerW) && finite(smp.PumpPowerW)
		for _, v := range append(append([]float64(nil), smp.LayerMaxC...), smp.LayerMeanC...) {
			allFinite = allFinite && finite(v)
		}
		var want bytes.Buffer
		if allFinite {
			if err := json.NewEncoder(&want).Encode(&smp); err != nil {
				t.Fatalf("encoding/json: %v", err)
			}
		} else {
			if !json.Valid(got) {
				t.Fatalf("non-finite frame is not valid JSON: %q", got)
			}
			ns := nullableSample{
				Time: nullable(smp.Time), Measured: smp.Measured,
				TmaxC:     nullable(smp.TmaxC),
				LayerMaxC: nullables(smp.LayerMaxC), LayerMeanC: nullables(smp.LayerMeanC),
				Setting: smp.Setting, FlowMLMin: nullable(smp.FlowMLMin),
				ChipPowerW: nullable(smp.ChipPowerW), PumpPowerW: nullable(smp.PumpPowerW),
				Migrations: smp.Migrations, Refits: smp.Refits,
			}
			if err := json.NewEncoder(&want).Encode(&ns); err != nil {
				t.Fatalf("encoding/json: %v", err)
			}
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("frame mismatch for %+v:\n got  %q\n want %q", smp, got, want.Bytes())
		}
	})
}
