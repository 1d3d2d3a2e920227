package solar

import (
	"fmt"
	"math"

	"solarsched/internal/rng"
)

// Predictor forecasts the harvested energy (J) of upcoming periods from the
// energies of completed ones. Implementations are causal: Predict(day, p)
// may use only observations made strictly before (day, p).
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Observe records the actual harvested energy of a completed period.
	// Periods must be observed in chronological order.
	Observe(day, period int, energy float64)
	// Predict forecasts the harvested energy of the given period.
	Predict(day, period int) float64
}

// Persistence predicts that the next period harvests what the previous one
// did. It is the weakest reasonable baseline.
type Persistence struct {
	last float64
}

// NewPersistence returns a persistence predictor.
func NewPersistence() *Persistence { return &Persistence{} }

// Name implements Predictor.
func (p *Persistence) Name() string { return "persistence" }

// Observe implements Predictor.
func (p *Persistence) Observe(_, _ int, energy float64) { p.last = energy }

// Predict implements Predictor.
func (p *Persistence) Predict(_, _ int) float64 { return p.last }

// EWMA is the exponentially-weighted moving average predictor of Kansal et
// al., keeping one smoothed estimate per period-of-day so that the diurnal
// shape is preserved.
type EWMA struct {
	alpha float64
	perP  []float64
	seen  []bool
}

// NewEWMA returns an EWMA predictor with smoothing factor alpha in (0,1]
// over a day of periodsPerDay periods.
func NewEWMA(alpha float64, periodsPerDay int) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("solar: EWMA alpha %g out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha, perP: make([]float64, periodsPerDay), seen: make([]bool, periodsPerDay)}
}

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// Observe implements Predictor.
func (e *EWMA) Observe(_, period int, energy float64) {
	p := period % len(e.perP)
	if !e.seen[p] {
		e.perP[p] = energy
		e.seen[p] = true
		return
	}
	e.perP[p] = e.alpha*energy + (1-e.alpha)*e.perP[p]
}

// Predict implements Predictor.
func (e *EWMA) Predict(_, period int) float64 {
	return e.perP[period%len(e.perP)]
}

// WCMA is the Weather-Conditioned Moving Average predictor (Piorno et al.,
// the predictor behind the paper's Inter-task baseline [3]). It combines the
// mean of the last D days at the target period-of-day with the current
// day's observed deviation from those days (the GAP factor over the last K
// periods):
//
//	E(d,p) = α·E(d,p−1) + (1−α)·GAP_K·M_D(p)
type WCMA struct {
	alpha   float64
	days    int         // D
	k       int         // K
	perDay  [][]float64 // ring of the last D complete days, [day][period]
	today   []float64
	todayOk []bool
	filled  int
	lastObs float64
}

// NewWCMA returns a WCMA predictor. Typical parameters (and our defaults in
// the experiments) are alpha = 0.5, days = 4, k = 3.
func NewWCMA(alpha float64, days, k, periodsPerDay int) *WCMA {
	if days <= 0 || k <= 0 || periodsPerDay <= 0 {
		panic("solar: WCMA requires positive days, k and periodsPerDay")
	}
	w := &WCMA{alpha: alpha, days: days, k: k}
	w.perDay = make([][]float64, days)
	for i := range w.perDay {
		w.perDay[i] = make([]float64, periodsPerDay)
	}
	w.today = make([]float64, periodsPerDay)
	w.todayOk = make([]bool, periodsPerDay)
	return w
}

// Name implements Predictor.
func (w *WCMA) Name() string { return "wcma" }

// Observe implements Predictor.
func (w *WCMA) Observe(_, period int, energy float64) {
	p := period % len(w.today)
	w.today[p] = energy
	w.todayOk[p] = true
	w.lastObs = energy
	if p == len(w.today)-1 { // day complete: rotate into history
		idx := w.filled % w.days
		copy(w.perDay[idx], w.today)
		w.filled++
		for i := range w.todayOk {
			w.todayOk[i] = false
		}
	}
}

// meanAt returns M_D(p), the mean of the stored days at period p.
func (w *WCMA) meanAt(p int) float64 {
	n := w.filled
	if n > w.days {
		n = w.days
	}
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += w.perDay[i][p]
	}
	return sum / float64(n)
}

// gap returns GAP_K, the weighted ratio of today's last K observations to
// the historical mean at the same periods. Recent periods weigh more.
func (w *WCMA) gap(upto int) float64 {
	num, den := 0.0, 0.0
	weight := 1.0
	count := 0
	for p := upto; p >= 0 && count < w.k; p-- {
		if !w.todayOk[p] {
			continue
		}
		m := w.meanAt(p)
		if m <= 0 {
			continue
		}
		num += weight * w.today[p] / m
		den += weight
		weight *= 0.7
		count++
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// Predict implements Predictor.
func (w *WCMA) Predict(_, period int) float64 {
	p := period % len(w.today)
	m := w.meanAt(p)
	if w.filled == 0 {
		return w.lastObs // cold start: persistence
	}
	pred := w.alpha*w.lastObs + (1-w.alpha)*w.gap(p-1)*m
	if pred < 0 {
		return 0
	}
	return pred
}

// HorizonForecast produces slot-level solar forecasts whose error grows with
// lead time, modeling the paper's observation that "a long prediction for
// solar power is inaccurate" (§6.4, Figure 10a). It perturbs the true trace
// with a multiplicative error whose standard deviation rises linearly with
// the forecast horizon.
type HorizonForecast struct {
	Trace *Trace
	// Sigma0 is the relative error at zero horizon; SigmaPerDay the added
	// relative error per 24 h of lead time.
	Sigma0, SigmaPerDay float64
	seed                uint64
}

// NewHorizonForecast returns a forecaster over the given true trace.
// Defaults (when zero): Sigma0 = 0.05, SigmaPerDay = 0.35.
func NewHorizonForecast(trace *Trace, seed uint64) *HorizonForecast {
	return &HorizonForecast{Trace: trace, Sigma0: 0.05, SigmaPerDay: 0.35, seed: seed}
}

// PeriodPowers returns the forecast slot powers of target period
// (tDay, tPeriod) as seen from (nowDay, nowPeriod). Forecasts are
// deterministic in (now, target): re-planning at the same instant sees the
// same future. The current period (zero horizon) is returned exactly.
func (h *HorizonForecast) PeriodPowers(nowDay, nowPeriod, tDay, tPeriod int) []float64 {
	return h.AppendPeriodPowers(nil, nowDay, nowPeriod, tDay, tPeriod)
}

// AppendPeriodPowers is PeriodPowers into dst's storage: it returns
// dst[:0] extended by the forecast, so a planner that keeps its window
// between periods stops allocating once the window is warm.
func (h *HorizonForecast) AppendPeriodPowers(dst []float64, nowDay, nowPeriod, tDay, tPeriod int) []float64 {
	tb := h.Trace.Base
	truth := h.Trace.PeriodPowers(tDay, tPeriod)
	out := append(dst[:0], truth...)
	lead := float64(tb.PeriodIndex(tDay, tPeriod)-tb.PeriodIndex(nowDay, nowPeriod)) *
		tb.PeriodSeconds() / 86400.0
	if lead <= 0 {
		return out
	}
	sigma := h.Sigma0 + h.SigmaPerDay*lead
	if sigma <= 0 { // a perfect forecaster (both sigmas zero) is exact
		return out
	}
	src := rng.New(h.seed).SplitLabeled(fmt.Sprintf("fc-%d-%d-%d-%d", nowDay, nowPeriod, tDay, tPeriod))
	// One slowly-varying factor per period plus small per-slot jitter: solar
	// forecast errors are strongly correlated within a half-hour.
	periodFactor := math.Exp(src.Norm(-0.5*sigma*sigma, sigma))
	jitter := math.Min(0.05, sigma)
	for i, p := range truth {
		f := periodFactor * (1 + src.Norm(0, jitter))
		if f < 0 {
			f = 0
		}
		out[i] = p * f
	}
	return out
}

// PeriodEnergy returns the forecast harvested energy (J) of the target
// period as seen from now.
func (h *HorizonForecast) PeriodEnergy(nowDay, nowPeriod, tDay, tPeriod int) float64 {
	sum := 0.0
	for _, p := range h.PeriodPowers(nowDay, nowPeriod, tDay, tPeriod) {
		sum += p
	}
	return sum * h.Trace.Base.SlotSeconds
}
