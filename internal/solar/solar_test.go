package solar

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeBaseValidate(t *testing.T) {
	good := DefaultTimeBase(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("default time base invalid: %v", err)
	}
	bad := []TimeBase{
		{Days: 0, PeriodsPerDay: 1, SlotsPerPeriod: 1, SlotSeconds: 1},
		{Days: 1, PeriodsPerDay: 0, SlotsPerPeriod: 1, SlotSeconds: 1},
		{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: 0, SlotSeconds: 1},
		{Days: 1, PeriodsPerDay: 1, SlotsPerPeriod: 1, SlotSeconds: 0},
	}
	for i, tb := range bad {
		if err := tb.Validate(); err == nil {
			t.Fatalf("bad time base %d accepted", i)
		}
	}
}

func TestTimeBaseArithmetic(t *testing.T) {
	tb := DefaultTimeBase(2)
	if got := tb.PeriodSeconds(); got != 1800 {
		t.Fatalf("PeriodSeconds = %v", got)
	}
	if got := tb.DaySeconds(); got != 86400 {
		t.Fatalf("DaySeconds = %v", got)
	}
	if got := tb.SlotsPerDay(); got != 1440 {
		t.Fatalf("SlotsPerDay = %v", got)
	}
	if got := tb.TotalSlots(); got != 2880 {
		t.Fatalf("TotalSlots = %v", got)
	}
	if got := tb.TotalPeriods(); got != 96 {
		t.Fatalf("TotalPeriods = %v", got)
	}
	if got := tb.Index(1, 0, 0); got != 1440 {
		t.Fatalf("Index(1,0,0) = %v", got)
	}
	if got := tb.Index(0, 1, 5); got != 35 {
		t.Fatalf("Index(0,1,5) = %v", got)
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Index did not panic")
		}
	}()
	DefaultTimeBase(1).Index(1, 0, 0)
}

func TestTraceEnergyAccounting(t *testing.T) {
	tb := TimeBase{Days: 1, PeriodsPerDay: 2, SlotsPerPeriod: 3, SlotSeconds: 10}
	tr := NewTrace(tb)
	tr.Set(0, 0, 0, 1.0)
	tr.Set(0, 0, 1, 2.0)
	tr.Set(0, 1, 2, 4.0)
	if got := tr.PeriodEnergy(0, 0); got != 30 {
		t.Fatalf("PeriodEnergy(0,0) = %v", got)
	}
	if got := tr.PeriodEnergy(0, 1); got != 40 {
		t.Fatalf("PeriodEnergy(0,1) = %v", got)
	}
	if got := tr.DayEnergy(0); got != 70 {
		t.Fatalf("DayEnergy = %v", got)
	}
	if got := tr.TotalEnergy(); got != 70 {
		t.Fatalf("TotalEnergy = %v", got)
	}
	if got := tr.PeakPower(); got != 4 {
		t.Fatalf("PeakPower = %v", got)
	}
	pp := tr.PeriodPowers(0, 0)
	if len(pp) != 3 || pp[1] != 2.0 {
		t.Fatalf("PeriodPowers = %v", pp)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Base: DefaultTimeBase(3), Seed: 99}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			t.Fatalf("traces diverge at slot %d", i)
		}
	}
}

func TestGenerateNightIsDark(t *testing.T) {
	tr := MustGenerate(GenConfig{Base: DefaultTimeBase(2), Seed: 1})
	// Periods 0-5 (00:00-03:00) and 42-47 (21:00-24:00) must harvest nothing.
	for d := 0; d < 2; d++ {
		for _, p := range []int{0, 1, 2, 3, 4, 5, 42, 43, 44, 45, 46, 47} {
			if e := tr.PeriodEnergy(d, p); e != 0 {
				t.Fatalf("night period %d on day %d has energy %v", p, d, e)
			}
		}
	}
}

func TestGenerateDaylightPositive(t *testing.T) {
	tr := MustGenerate(GenConfig{Base: DefaultTimeBase(1), Seed: 1, Conditions: []Condition{Sunny}})
	// Midday (period 24, 12:00) must be strongly positive on a sunny day.
	if e := tr.PeriodEnergy(0, 24); e <= 0 {
		t.Fatalf("midday period has no energy: %v", e)
	}
	// Peak power must be bounded by the panel's physical maximum.
	max := DefaultPanel().Power(1100)
	if p := tr.PeakPower(); p <= 0 || p > max {
		t.Fatalf("peak power %v outside (0, %v]", p, max)
	}
}

func TestRepresentativeDaysOrdering(t *testing.T) {
	tr := RepresentativeDays(DefaultTimeBase(4))
	if tr.Base.Days != 4 {
		t.Fatalf("want 4 days, got %d", tr.Base.Days)
	}
	for d := 0; d < 3; d++ {
		if tr.DayEnergy(d) <= tr.DayEnergy(d+1) {
			t.Fatalf("day energies not decreasing: day%d=%v day%d=%v",
				d+1, tr.DayEnergy(d), d+2, tr.DayEnergy(d+1))
		}
	}
	// The rainy day still harvests something, but far less than the sunny day.
	if r := tr.DayEnergy(3) / tr.DayEnergy(0); r <= 0 || r > 0.4 {
		t.Fatalf("rainy/sunny energy ratio %v outside (0, 0.4]", r)
	}
}

func TestTwoMonthTraceShape(t *testing.T) {
	tr := TwoMonthTrace(DefaultTimeBase(60))
	if tr.Base.Days != 60 {
		t.Fatalf("want 60 days, got %d", tr.Base.Days)
	}
	// Day energies must vary (weather) but all be non-negative.
	min, max := math.Inf(1), 0.0
	for d := 0; d < 60; d++ {
		e := tr.DayEnergy(d)
		if e < 0 {
			t.Fatalf("negative day energy on day %d", d)
		}
		min = math.Min(min, e)
		max = math.Max(max, e)
	}
	if max <= min*1.5 {
		t.Fatalf("two-month trace shows no weather variability: min=%v max=%v", min, max)
	}
}

func TestSliceDays(t *testing.T) {
	tr := MustGenerate(GenConfig{Base: DefaultTimeBase(4), Seed: 5})
	s := tr.SliceDays(1, 3)
	if s.Base.Days != 2 {
		t.Fatalf("sliced days = %d", s.Base.Days)
	}
	if s.At(0, 24, 0) != tr.At(1, 24, 0) {
		t.Fatal("slice content mismatch")
	}
	s.Set(0, 0, 0, 42)
	if tr.At(1, 0, 0) == 42 {
		t.Fatal("SliceDays shares storage with parent")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := MustGenerate(GenConfig{Base: TimeBase{Days: 2, PeriodsPerDay: 4, SlotsPerPeriod: 5, SlotSeconds: 30}, Seed: 77})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != tr.Base {
		t.Fatalf("time base mismatch: %+v vs %+v", got.Base, tr.Base)
	}
	for i := range tr.Power {
		if got.Power[i] != tr.Power[i] {
			t.Fatalf("power mismatch at %d: %v vs %v", i, got.Power[i], tr.Power[i])
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("not a header\n")); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("# days=1 periods=1 slots=1 slot_seconds=60\nday,period,slot,power_w\n9,0,0,1\n")); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestReadCSVRejectsNonFiniteAndNegativePower(t *testing.T) {
	const head = "# days=1 periods=1 slots=2 slot_seconds=60\nday,period,slot,power_w\n0,0,0,0.25\n"
	for _, v := range []string{"NaN", "nan", "+Inf", "-Inf", "Inf", "1e400", "-0.5", "-1e-300"} {
		_, err := ReadCSV(bytes.NewBufferString(head + "0,0,1," + v + "\n"))
		if err == nil {
			t.Fatalf("power %s accepted", v)
		}
		if !strings.Contains(err.Error(), "[0 0 1 "+v+"]") {
			t.Fatalf("power %s: error %q does not name the row", v, err)
		}
	}
	for _, v := range []string{"0", "-0", "0.5", "4.9e-324"} {
		if _, err := ReadCSV(bytes.NewBufferString(head + "0,0,1," + v + "\n")); err != nil {
			t.Fatalf("power %s rejected: %v", v, err)
		}
	}
}

func TestPersistence(t *testing.T) {
	p := NewPersistence()
	if got := p.Predict(0, 0); got != 0 {
		t.Fatalf("cold predict = %v", got)
	}
	p.Observe(0, 0, 12.5)
	if got := p.Predict(0, 1); got != 12.5 {
		t.Fatalf("predict = %v", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5, 4)
	for day := 0; day < 20; day++ {
		for p := 0; p < 4; p++ {
			e.Observe(day, p, float64(p)*10)
		}
	}
	for p := 0; p < 4; p++ {
		if got := e.Predict(20, p); math.Abs(got-float64(p)*10) > 1e-6 {
			t.Fatalf("EWMA period %d = %v, want %v", p, got, float64(p)*10)
		}
	}
}

func TestWCMATracksDiurnalShape(t *testing.T) {
	w := NewWCMA(0.5, 4, 3, 6)
	shape := []float64{0, 5, 20, 20, 5, 0}
	for day := 0; day < 6; day++ {
		for p := 0; p < 6; p++ {
			w.Observe(day, p, shape[p])
		}
	}
	// A stationary history should be predicted closely.
	for p := 1; p < 6; p++ {
		got := w.Predict(6, p)
		// alpha blending with the previous-period observation makes the
		// prediction a mix; allow a generous band.
		if got < 0 || got > 25 {
			t.Fatalf("WCMA predict(%d) = %v out of band", p, got)
		}
	}
}

func TestWCMAScalesWithCloudyDay(t *testing.T) {
	// History: 4 bright days; today is 50% dimmer so far. The GAP factor
	// must pull the forecast for the next period below the historical mean.
	w := NewWCMA(0.3, 4, 3, 6)
	for day := 0; day < 4; day++ {
		for p := 0; p < 6; p++ {
			w.Observe(day, p, 100)
		}
	}
	for p := 0; p < 3; p++ {
		w.Observe(4, p, 50)
	}
	pred := w.Predict(4, 3)
	if pred >= 100 {
		t.Fatalf("WCMA ignored the cloudy morning: predict = %v", pred)
	}
	if pred < 30 {
		t.Fatalf("WCMA overshot the correction: predict = %v", pred)
	}
}

func TestWCMAColdStart(t *testing.T) {
	w := NewWCMA(0.5, 4, 3, 6)
	if got := w.Predict(0, 0); got != 0 {
		t.Fatalf("cold WCMA = %v", got)
	}
	w.Observe(0, 0, 7)
	if got := w.Predict(0, 1); got != 7 {
		t.Fatalf("cold WCMA after one obs = %v (want persistence)", got)
	}
}

func TestHorizonForecastExactAtZeroLead(t *testing.T) {
	tr := RepresentativeDays(DefaultTimeBase(4))
	h := NewHorizonForecast(tr, 1)
	got := h.PeriodPowers(1, 24, 1, 24)
	want := tr.PeriodPowers(1, 24)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("zero-lead forecast is not exact")
		}
	}
}

func TestHorizonForecastErrorGrowsWithLead(t *testing.T) {
	tr := TwoMonthTrace(DefaultTimeBase(60))
	h := NewHorizonForecast(tr, 3)
	relErr := func(lead int) float64 {
		sum, n := 0.0, 0
		for day := 5; day < 30; day++ {
			truth := tr.PeriodEnergy(day, 24)
			if truth <= 0 {
				continue
			}
			fcDay, fcP := day, 24-lead
			for fcP < 0 {
				fcDay--
				fcP += tr.Base.PeriodsPerDay
			}
			pred := h.PeriodEnergy(fcDay, fcP, day, 24)
			sum += math.Abs(pred-truth) / truth
			n++
		}
		return sum / float64(n)
	}
	short := relErr(2)                        // 1 h ahead
	long := relErr(2 * tr.Base.PeriodsPerDay) // 48 h ahead
	if long <= short {
		t.Fatalf("forecast error did not grow with horizon: short=%v long=%v", short, long)
	}
}

func TestHorizonForecastDeterministic(t *testing.T) {
	tr := RepresentativeDays(DefaultTimeBase(4))
	h := NewHorizonForecast(tr, 5)
	a := h.PeriodPowers(0, 10, 2, 24)
	b := h.PeriodPowers(0, 10, 2, 24)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forecast not deterministic")
		}
	}
}

// Property: every generated trace is non-negative and physically bounded.
func TestGenerateBoundsProperty(t *testing.T) {
	maxP := DefaultPanel().Power(1200)
	f := func(seed uint64) bool {
		tb := TimeBase{Days: 2, PeriodsPerDay: 24, SlotsPerPeriod: 10, SlotSeconds: 120}
		tr := MustGenerate(GenConfig{Base: tb, Seed: seed})
		for _, p := range tr.Power {
			if p < 0 || p > maxP || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	cfg := GenConfig{Base: DefaultTimeBase(1), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg)
	}
}
