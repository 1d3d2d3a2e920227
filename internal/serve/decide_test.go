package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"solarsched/internal/fleet"
)

// decideProbe is a /v1/decide body on the package's shared network (graph
// wam, h = 2, testTrain), reduced to the inputs a node reports.
type decideProbe struct {
	powers         []float64
	v0, v1, dmr    float64
	period, active int
}

func (p decideProbe) body() ([]byte, error) {
	train := testTrain
	return json.Marshal(decideRequest{
		Graph: "wam", H: 2, Train: &train,
		LastPeriodPowers: p.powers, Voltages: []float64{p.v0, p.v1},
		AccumulatedDMR: p.dmr, PeriodOfDay: p.period, ActiveCap: p.active,
	})
}

func repeated(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// nonPhysicalProbes lie outside the physical range. Unchecked, the first
// three overflow the features to ±Inf and the forward pass to NaN, which
// JSON cannot carry; the rest decide on inputs no node can report. Each
// must answer 400 naming field.
var nonPhysicalProbes = []struct {
	name, field string
	p           decideProbe
}{
	{"huge powers", "power", decideProbe{powers: repeated(1e308, 12), v0: 3, v1: 1.2}},
	{"huge negative powers", "power", decideProbe{powers: repeated(-1e308, 12), v0: 3, v1: 1.2}},
	{"mixed huge powers", "power", decideProbe{powers: append(repeated(1e308, 6), repeated(-1e308, 6)...), v0: 3, v1: 1.2}},
	{"negative powers", "power", decideProbe{powers: repeated(-0.01, 12), v0: 3, v1: 1.2}},
	{"negative DMR", "DMR", decideProbe{v0: 3, v1: 1.2, dmr: -7}},
	{"huge DMR", "DMR", decideProbe{v0: 3, v1: 1.2, dmr: 1e308}},
}

// serveDecide answers one decide body through the server's handler.
func serveDecide(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
	return rec
}

// TestDecideRejectsNonPhysicalInputs: each probe answers 400 and names the
// offending field.
func TestDecideRejectsNonPhysicalInputs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range nonPhysicalProbes {
		body, err := tc.p.body()
		if err != nil {
			t.Fatal(err)
		}
		rec := serveDecide(s, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.field) {
			t.Errorf("%s: HTTP %d %q, want 400 naming %s", tc.name, rec.Code, rec.Body.String(), tc.field)
		}
	}
}

// floatBytes and bytesFloats carry a power list through the fuzzer as
// little-endian float64 bits.
func floatBytes(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func bytesFloats(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// FuzzDecideBody fuzzes the node-reported inputs of a decide body on one
// fixed network (graph, h and train are not fuzzed: they select what gets
// trained, and nothing bounds the training budget). The handler must
// answer 400, or 200 with a decodable decision whose numbers are finite
// and whose te has one entry per task.
func FuzzDecideBody(f *testing.F) {
	var dr decideRequest
	if err := json.Unmarshal([]byte(testDecideBody), &dr); err != nil {
		f.Fatal(err)
	}
	f.Add(floatBytes(dr.LastPeriodPowers), dr.Voltages[0], dr.Voltages[1], dr.AccumulatedDMR, dr.PeriodOfDay, dr.ActiveCap)
	for _, tc := range nonPhysicalProbes {
		p := tc.p
		f.Add(floatBytes(p.powers), p.v0, p.v1, p.dmr, p.period, p.active)
	}

	s, _ := newTestServer(f, Config{})
	pc, _, err := fleet.NetworkFor(context.Background(), testCache, nil, "wam", 2, testTrain)
	if err != nil {
		f.Fatal(err)
	}
	tasks := pc.Graph.N()

	f.Fuzz(func(t *testing.T, powers []byte, v0, v1, dmr float64, period, active int) {
		p := decideProbe{powers: bytesFloats(powers), v0: v0, v1: v1, dmr: dmr, period: period, active: active}
		body, err := p.body()
		if err != nil {
			return // NaN or ±Inf: JSON cannot carry it to the handler
		}
		rec := serveDecide(s, body)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("HTTP %d %q for %s", rec.Code, rec.Body.String(), body)
		}
		var d decideResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("200 with undecodable body %q for %s: %v", rec.Body.String(), body, err)
		}
		for name, x := range map[string]float64{"alpha": d.Alpha, "eth_joules": d.EThJoules, "usable_joules": d.UsableJoules} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s = %g for %s", name, x, body)
			}
		}
		if len(d.Te) != tasks {
			t.Fatalf("te has %d entries, want %d, for %s", len(d.Te), tasks, body)
		}
	})
}
