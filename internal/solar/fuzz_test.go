package solar

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV hardens the trace parser: arbitrary input must produce an
// error or a valid trace — never a panic, never a malformed TimeBase and
// never a power that is NaN, infinite or negative.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	tr := MustGenerate(GenConfig{Base: TimeBase{Days: 1, PeriodsPerDay: 2, SlotsPerPeriod: 3, SlotSeconds: 10}, Seed: 1})
	if err := tr.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# days=1 periods=1 slots=1 slot_seconds=60\nday,period,slot,power_w\n0,0,0,0.5\n"))
	f.Add([]byte("# days=-3 periods=1 slots=1 slot_seconds=60\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("# days=1 periods=1 slots=1 slot_seconds=60\n0,0,0,NaN\n"))
	f.Add([]byte("# days=1 periods=1 slots=1 slot_seconds=60\n0,0,0,-Inf\n"))
	f.Add([]byte("# days=1 periods=1 slots=1 slot_seconds=60\n0,0,0,-0.5\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Base.Validate(); verr != nil {
			t.Fatalf("ReadCSV accepted invalid base: %v", verr)
		}
		if len(got.Power) != got.Base.TotalSlots() {
			t.Fatalf("power length %d != %d", len(got.Power), got.Base.TotalSlots())
		}
		for i, v := range got.Power {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("ReadCSV accepted power %v at slot %d", v, i)
			}
		}
	})
}
