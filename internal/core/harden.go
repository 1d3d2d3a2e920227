package core

import (
	"math"

	"solarsched/internal/ann"
	"solarsched/internal/sim"
)

// HardenConfig enables graceful degradation of the Proposed scheduler for
// deployments where the inputs the paper assumes clean — voltage readings,
// solar measurements, the DBN itself — cannot be trusted. Three defenses
// stack:
//
//  1. an output sanitizer that rejects implausible network outputs
//     (NaN/Inf anywhere, malformed head sizes, a pattern index outside its
//     plausible range) and substitutes the last accepted decision;
//  2. a watchdog that abandons the DBN for the WCMA lazy baseline
//     (the paper's Inter-task scheduler) for FallbackPeriods periods when
//     outputs are rejected RejectLimit times in a row, or when the
//     deadline-miss rate of the recent GuardWindow periods blows past
//     GuardBandDMR — whatever the network says, the node must keep
//     meeting deadlines;
//  3. hysteresis on the E_th capacitor-switch rule (eq. (22)): a switch is
//     only honored after EthDebounce consecutive below-threshold readings,
//     so sensor noise flickering around E_th cannot trigger spurious —
//     and lossy — energy migrations.
//
// A nil *HardenConfig on Proposed keeps the paper's exact behavior, bit
// for bit.
type HardenConfig struct {
	// MaxAlphaRaw is the plausibility bound on the raw α head output
	// (trained range is [0, 1]; see alphaToTarget).
	MaxAlphaRaw float64
	// RejectLimit is the number of consecutive sanitizer rejections that
	// trips the watchdog.
	RejectLimit int
	// GuardWindow is the number of recent periods over which the watchdog
	// evaluates the deadline-miss rate.
	GuardWindow int
	// GuardBandDMR is the recent-window DMR beyond which the watchdog
	// trips regardless of sanitizer state.
	GuardBandDMR float64
	// FallbackPeriods is how many periods a tripped watchdog delegates to
	// the WCMA lazy baseline before giving the DBN another chance.
	FallbackPeriods int
	// EthDebounce is the number of consecutive below-E_th energy readings
	// required before a capacitor switch is honored.
	EthDebounce int
}

// DefaultHardenConfig returns the hardening thresholds used by the fault
// sweep: tolerant enough never to fire on a healthy run of the evaluation
// workloads, tight enough to catch a misbehaving DBN within a handful of
// periods.
func DefaultHardenConfig() HardenConfig {
	return HardenConfig{
		MaxAlphaRaw:     1.5,
		RejectLimit:     3,
		GuardWindow:     8,
		GuardBandDMR:    0.75,
		FallbackPeriods: 16,
		EthDebounce:     2,
	}
}

// hardState is the run-local state of the hardening layer.
type hardState struct {
	inFallback     bool
	fallbackLeft   int
	consecRejects  int
	belowEthStreak int
	lastGoodTe     []bool
	// missedHist holds the cumulative missed-task count at the start of
	// each recent period (a GuardWindow+1 ring), reconstructed from the
	// engine's accumulated DMR; the difference across the ring is the
	// recent-window miss count.
	missedHist []float64
}

// saneOutput reports whether a network output is plausible: correctly
// shaped heads, finite everywhere, and a pattern index within its trained
// range (slack below zero, maxAlphaRaw above). Anything else is the
// signature of a corrupted inference, not a bad-but-honest decision.
func saneOutput(out ann.Output, capClasses, taskCount int, maxAlphaRaw float64) bool {
	if len(out.CapProbs) != capClasses || len(out.Te) != taskCount {
		return false
	}
	if math.IsNaN(out.Alpha) || math.IsInf(out.Alpha, 0) ||
		out.Alpha < -0.5 || out.Alpha > maxAlphaRaw {
		return false
	}
	for _, p := range out.CapProbs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false
		}
	}
	for _, p := range out.Te {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false
		}
	}
	return true
}

// watchdogUpdate folds this period's sanitizer verdict and the engine's
// accumulated DMR into the watchdog, tripping the fallback when either the
// consecutive-rejection limit or the recent-window DMR guard band is
// exceeded. It must be called exactly once per period, before the fallback
// window is consumed.
func (s *Proposed) watchdogUpdate(v *sim.PeriodView, rejected bool) {
	hc := s.Harden
	if rejected {
		s.hs.consecRejects++
	} else {
		s.hs.consecRejects = 0
	}
	trip := hc.RejectLimit > 0 && s.hs.consecRejects >= hc.RejectLimit

	if hc.GuardWindow > 0 && hc.GuardBandDMR > 0 {
		n := s.pc.Graph.N()
		completed := v.Base.PeriodIndex(v.Day, v.Period)
		missed := v.AccumulatedDMR * float64(completed*n)
		// Slide the window in place: once full, drop the oldest entry by
		// shifting the rest down, so the buffer never creeps through its
		// backing array.
		if h := s.hs.missedHist; len(h) >= hc.GuardWindow+1 {
			copy(h, h[1:])
			h[len(h)-1] = missed
		} else {
			s.hs.missedHist = append(h, missed)
		}
		if !trip && len(s.hs.missedHist) == hc.GuardWindow+1 {
			windowDMR := (missed - s.hs.missedHist[0]) / float64(hc.GuardWindow*n)
			if windowDMR > hc.GuardBandDMR {
				trip = true
			}
		}
	}

	if trip && s.hs.fallbackLeft == 0 {
		s.hs.fallbackLeft = hc.FallbackPeriods
		s.hs.consecRejects = 0
		s.hs.missedHist = s.hs.missedHist[:0]
		s.mWatchdogTrips.Inc()
	}
}

// ethSwitchAllowed applies the E_th rule of eq. (22) with the hardening
// layer's debounce: `below` is this period's (possibly noisy) reading of
// "stored energy under E_th". Unhardened behavior is the plain rule; the
// hardened rule additionally demands EthDebounce consecutive below
// readings before honoring a switch, so a single noisy sample flickering
// under the threshold cannot trigger a lossy migration. Called once per
// period so the streak tracks every reading, not only switch requests.
func (s *Proposed) ethSwitchAllowed(below bool) bool {
	if s.Harden == nil {
		return below
	}
	if below {
		s.hs.belowEthStreak++
	} else {
		s.hs.belowEthStreak = 0
	}
	return below && s.hs.belowEthStreak >= s.Harden.EthDebounce
}
