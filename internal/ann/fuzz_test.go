package ann

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"solarsched/internal/mat"
)

// FuzzReadJSON hardens the model parser: arbitrary input must produce an
// error or a network whose Forward works on a correctly-sized input —
// never a panic.
func FuzzReadJSON(f *testing.F) {
	n := New(Config{InputDim: 3, Hidden: []int{4}, CapClasses: 2, TaskCount: 2, Seed: 1})
	var seed bytes.Buffer
	if err := n.WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"config":{"InputDim":1,"Hidden":[1],"CapClasses":1,"TaskCount":1}}`)
	f.Add(`{`)
	for _, m := range badDimensionModels {
		f.Add(m.src)
	}

	f.Fuzz(func(t *testing.T, data string) {
		net, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		out := net.Forward(mat.NewVector(net.Config().InputDim))
		if len(out.CapProbs) != net.Config().CapClasses {
			t.Fatal("restored network produced wrong head size")
		}
	})
}

// FuzzUnmarshalBinary holds the gob decoder to ReadJSON's promise:
// arbitrary input produces an error or a network whose Forward works on a
// correctly-sized input — never a panic.
func FuzzUnmarshalBinary(f *testing.F) {
	n := New(Config{InputDim: 3, Hidden: []int{4}, CapClasses: 2, TaskCount: 2, Seed: 1})
	good, err := n.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	for _, w := range []netWire{
		{Config: Config{InputDim: 1, Hidden: []int{-1}, CapClasses: 1, TaskCount: 1}, TrunkW: [][]float64{nil}, TrunkB: [][]float64{nil}},
		{Config: Config{InputDim: 1, Hidden: []int{0}, CapClasses: 1, TaskCount: 1}, TrunkW: [][]float64{nil}, TrunkB: [][]float64{nil}},
		{Config: Config{InputDim: 4096, Hidden: []int{4096}, CapClasses: 1, TaskCount: 1}, TrunkW: [][]float64{{0.5}}, TrunkB: [][]float64{{0.5}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		net := new(Network)
		if err := net.UnmarshalBinary(data); err != nil {
			return
		}
		out := net.Forward(mat.NewVector(net.Config().InputDim))
		if len(out.CapProbs) != net.Config().CapClasses {
			t.Fatal("restored network produced wrong head size")
		}
	})
}
