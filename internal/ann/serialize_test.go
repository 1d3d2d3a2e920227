package ann

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"solarsched/internal/mat"
	"solarsched/internal/rng"
)

func TestModelRoundTrip(t *testing.T) {
	src := rng.New(5)
	inputs, targets := makeSupervised(150, src)
	n := New(Config{InputDim: 8, Hidden: []int{14, 6}, CapClasses: 4, TaskCount: 4, Seed: 3})
	opt := DefaultTrainOptions()
	opt.Epochs = 20
	n.Train(inputs, targets, opt)

	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored network must be functionally identical.
	for i := 0; i < 20; i++ {
		x := mat.NewVector(8)
		for j := range x {
			x[j] = src.Float64()
		}
		a, b := n.Forward(x), m.Forward(x)
		if a.Alpha != b.Alpha || a.Cap() != b.Cap() {
			t.Fatalf("restored network diverges on input %d", i)
		}
		for j := range a.Te {
			if a.Te[j] != b.Te[j] {
				t.Fatalf("te diverges on input %d output %d", i, j)
			}
		}
	}
}

func TestProvenanceRoundTrip(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{6}, CapClasses: 2, TaskCount: 3, Seed: 9})
	prov := &Provenance{
		Samples: 480, PretrainEpochs: 8, FineEpochs: 200,
		Loss: 0.125, Seed: 9, Parent: "abc123", ParentVersion: 4,
	}
	n.SetProvenance(prov)
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"format":2`) {
		t.Fatalf("serialized model missing format version: %.120s", buf.String())
	}
	m, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Provenance()
	if got == nil || *got != *prov {
		t.Fatalf("provenance round-trip: got %+v, want %+v", got, prov)
	}
}

// TestReadJSONVersion1Compat verifies that pre-provenance envelopes — no
// "format" field, no provenance block — still load, with nil provenance.
func TestReadJSONVersion1Compat(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{6}, CapClasses: 2, TaskCount: 3, Seed: 1})
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the v2 additions to reconstruct a v1 file byte layout.
	v1 := strings.Replace(buf.String(), `"format":2,`, "", 1)
	if v1 == buf.String() {
		t.Fatal("test fixture mismatch: format field not found")
	}
	m, err := ReadJSON(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if m.Provenance() != nil {
		t.Fatalf("v1 envelope produced provenance %+v", m.Provenance())
	}
	x := mat.NewVector(4)
	for j := range x {
		x[j] = 0.25 * float64(j)
	}
	a, b := n.Forward(x), m.Forward(x)
	if a.Alpha != b.Alpha || a.Cap() != b.Cap() {
		t.Fatal("v1-restored network diverges")
	}
}

func TestReadJSONRejectsFutureFormat(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{6}, CapClasses: 2, TaskCount: 3, Seed: 1})
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(buf.String(), `"format":2`, `"format":99`, 1)
	if _, err := ReadJSON(strings.NewReader(future)); err == nil {
		t.Fatal("future format accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	src := rng.New(11)
	inputs, targets := makeSupervised(80, src)
	n := New(Config{InputDim: 8, Hidden: []int{10, 5}, CapClasses: 4, TaskCount: 4, Seed: 7})
	c := n.Clone()

	x := mat.NewVector(8)
	for j := range x {
		x[j] = src.Float64()
	}
	before := n.Forward(x)
	// Training the clone must not disturb the original.
	opt := DefaultTrainOptions()
	opt.Epochs = 5
	c.Train(inputs, targets, opt)
	after := n.Forward(x)
	if before.Alpha != after.Alpha || before.Cap() != after.Cap() {
		t.Fatal("training a clone mutated the original network")
	}
	cl := c.Forward(x)
	if cl.Alpha == before.Alpha {
		t.Fatal("clone did not train (forward unchanged)")
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	n := New(Config{InputDim: 4, Hidden: []int{6}, CapClasses: 2, TaskCount: 3, Seed: 1})
	var buf bytes.Buffer
	if err := n.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage":      "{nope",
		"empty config": `{"config":{}}`,
		"short trunk":  strings.Replace(good, `"trunk_biases":[[`, `"trunk_biases":[[9,9,9,9,9,9],[`, 1),
	}
	for name, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Truncated weights.
	mangled := strings.Replace(good, `"cap_bias":[0,0]`, `"cap_bias":[0]`, 1)
	if mangled == good {
		t.Fatal("test fixture mismatch: cap_bias not found")
	}
	if _, err := ReadJSON(strings.NewReader(mangled)); err == nil {
		t.Error("truncated cap bias accepted")
	}
}

// badDimensionModels are model files whose configuration claims a shape
// the carried weights do not have: a negative and a zero-width trunk layer,
// and a 4096×4096 layer that carries one weight.
var badDimensionModels = []struct{ name, src string }{
	{"negative hidden", `{"config":{"InputDim":1,"Hidden":[-1],"CapClasses":1,"TaskCount":1},"trunk_weights":[[]],"trunk_biases":[[]]}`},
	{"zero hidden", `{"config":{"InputDim":1,"Hidden":[0],"CapClasses":1,"TaskCount":1},"trunk_weights":[[]],"trunk_biases":[[]],"cap_weights":[],"cap_bias":[0],"alpha_weights":[],"te_weights":[],"te_bias":[0]}`},
	{"huge layer", `{"config":{"InputDim":4096,"Hidden":[4096],"CapClasses":1,"TaskCount":1},"trunk_weights":[[0.5]],"trunk_biases":[[0.5]]}`},
}

// TestReadJSONRejectsBadDimensions: every dimension is checked against the
// weights the file carries before anything is allocated for them, so a
// non-positive layer is a typed error rather than a panic, and a file
// that claims a huge layer costs no more than the file itself.
func TestReadJSONRejectsBadDimensions(t *testing.T) {
	for _, m := range badDimensionModels {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadJSON(strings.NewReader(m.src))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: err = %v, want ErrInvalidModel", m.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: rejecting the model allocated %d bytes, want under 64 KiB", m.name, alloc)
		}
	}
}

// TestBinaryRoundTrip: MarshalBinary and UnmarshalBinary restore every
// weight bit for bit, non-finite ones included, with the provenance;
// WriteJSON of the restored network is the original's.
func TestBinaryRoundTrip(t *testing.T) {
	src := rng.New(5)
	inputs, targets := makeSupervised(60, src)
	n := New(Config{InputDim: 8, Hidden: []int{14, 6}, CapClasses: 4, TaskCount: 4, Seed: 3})
	opt := DefaultTrainOptions()
	opt.Epochs = 5
	n.Train(inputs, targets, opt)
	n.SetProvenance(&Provenance{Samples: 60, FineEpochs: 5, Loss: 0.25, Seed: 3, Parent: "ab", ParentVersion: 2})

	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := new(Network)
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := n.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("binary round trip changed the network")
	}
	if *m.Provenance() != *n.Provenance() {
		t.Fatalf("provenance = %+v, want %+v", m.Provenance(), n.Provenance())
	}

	n.alphaB = math.NaN()
	n.teB[0] = math.Inf(-1)
	if data, err = n.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(m.alphaB) != math.Float64bits(n.alphaB) || !math.IsInf(m.teB[0], -1) {
		t.Fatalf("non-finite weights came back as %v, %v", m.alphaB, m.teB[0])
	}
}
