package solar

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Trace holds the average panel output power (watts) of every slot, the
// paper's P^s_{i,j,m}. Values are electrical power after the panel, i.e.
// irradiance × area × panel efficiency.
type Trace struct {
	Base  TimeBase
	Power []float64 // length Base.TotalSlots()
}

// NewTrace returns a zero trace over the given time base.
func NewTrace(tb TimeBase) *Trace {
	return &Trace{Base: tb, Power: make([]float64, tb.TotalSlots())}
}

// At returns the average power (W) of slot (day, period, slot).
func (t *Trace) At(day, period, slot int) float64 {
	return t.Power[t.Base.Index(day, period, slot)]
}

// Set assigns the power (W) of slot (day, period, slot).
func (t *Trace) Set(day, period, slot int, w float64) {
	t.Power[t.Base.Index(day, period, slot)] = w
}

// PeriodPowers returns the Ns slot powers of one period as a subslice of the
// trace storage (do not mutate unless that is intended).
func (t *Trace) PeriodPowers(day, period int) []float64 {
	start := t.Base.Index(day, period, 0)
	return t.Power[start : start+t.Base.SlotsPerPeriod]
}

// PeriodEnergy returns the harvested energy (J) available in one period.
func (t *Trace) PeriodEnergy(day, period int) float64 {
	sum := 0.0
	for _, p := range t.PeriodPowers(day, period) {
		sum += p
	}
	return sum * t.Base.SlotSeconds
}

// DayEnergy returns the harvested energy (J) available in one day.
func (t *Trace) DayEnergy(day int) float64 {
	sum := 0.0
	for p := 0; p < t.Base.PeriodsPerDay; p++ {
		sum += t.PeriodEnergy(day, p)
	}
	return sum
}

// TotalEnergy returns the harvested energy (J) over the whole trace.
func (t *Trace) TotalEnergy() float64 {
	sum := 0.0
	for d := 0; d < t.Base.Days; d++ {
		sum += t.DayEnergy(d)
	}
	return sum
}

// PeakPower returns the maximum slot power (W) in the trace.
func (t *Trace) PeakPower() float64 {
	peak := 0.0
	for _, p := range t.Power {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// SliceDays returns a new trace containing days [from, to) of t.
// The underlying power storage is copied.
func (t *Trace) SliceDays(from, to int) *Trace {
	if from < 0 || to > t.Base.Days || from >= to {
		panic(fmt.Sprintf("solar: SliceDays(%d,%d) out of range for %d days", from, to, t.Base.Days))
	}
	tb := t.Base
	tb.Days = to - from
	out := NewTrace(tb)
	start := from * t.Base.SlotsPerDay()
	copy(out.Power, t.Power[start:start+tb.TotalSlots()])
	return out
}

// WriteCSV writes the trace as "day,period,slot,power_w" rows preceded by a
// header comment carrying the time base, so ReadCSV can reconstruct it.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# days=%d periods=%d slots=%d slot_seconds=%g\n",
		t.Base.Days, t.Base.PeriodsPerDay, t.Base.SlotsPerPeriod, t.Base.SlotSeconds)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"day", "period", "slot", "power_w"}); err != nil {
		return err
	}
	for d := 0; d < t.Base.Days; d++ {
		for p := 0; p < t.Base.PeriodsPerDay; p++ {
			for s := 0; s < t.Base.SlotsPerPeriod; s++ {
				rec := []string{
					strconv.Itoa(d), strconv.Itoa(p), strconv.Itoa(s),
					strconv.FormatFloat(t.At(d, p, s), 'g', -1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV reads a trace previously written by WriteCSV. It rejects a row
// whose power is NaN, infinite or negative, naming the row.
func ReadCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("solar: reading trace header: %w", err)
	}
	var tb TimeBase
	if _, err := fmt.Sscanf(header, "# days=%d periods=%d slots=%d slot_seconds=%g",
		&tb.Days, &tb.PeriodsPerDay, &tb.SlotsPerPeriod, &tb.SlotSeconds); err != nil {
		return nil, fmt.Errorf("solar: malformed trace header %q: %w", header, err)
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	t := NewTrace(tb)
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = 4
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("solar: reading trace rows: %w", err)
		}
		if first {
			first = false
			if rec[0] == "day" { // column header
				continue
			}
		}
		d, err1 := strconv.Atoi(rec[0])
		p, err2 := strconv.Atoi(rec[1])
		s, err3 := strconv.Atoi(rec[2])
		v, err4 := strconv.ParseFloat(rec[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("solar: malformed trace row %v", rec)
		}
		if d < 0 || d >= tb.Days || p < 0 || p >= tb.PeriodsPerDay || s < 0 || s >= tb.SlotsPerPeriod {
			return nil, fmt.Errorf("solar: trace row out of range %v", rec)
		}
		// A harvested power is a finite number of watts, never negative:
		// one NaN slot would carry into every later capacitor state.
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("solar: trace row %v: power %v is not a finite non-negative number", rec, v)
		}
		t.Set(d, p, s, v)
	}
	return t, nil
}
