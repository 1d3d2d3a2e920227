package core

import (
	"math"

	"solarsched/internal/mat"
	"solarsched/internal/supercap"
)

// The ANN input encoding of §5.1: the solar power of the last period
// (down-sampled to solarBins values), the initial voltages of all H super
// capacitors, the accumulated DMR, and a sin/cos encoding of the
// period-of-day (the temporal context the historical solar power implies).
const solarBins = 6

// powerNorm normalizes solar powers into roughly [0, 1]; 0.1 W is just above
// the panel's physical peak.
const powerNorm = 0.1

// FeatureDim returns the ANN input dimension for a bank of h capacitors.
func FeatureDim(h int) int { return solarBins + h + 1 + 2 }

// Features builds the ANN input vector. prevPowers is the slot powers of
// the previous period (nil or empty for the first period), voltages the
// bank voltages at the period start, accDMR the accumulated DMR
// (eq. (19)), and periodOfDay/periodsPerDay locate the period in the day.
func Features(prevPowers, voltages []float64, accDMR float64,
	periodOfDay, periodsPerDay int, p supercap.Params) mat.Vector {
	return featuresTo(nil, prevPowers, voltages, accDMR, periodOfDay, periodsPerDay, p)
}

// featuresTo is Features writing into dst, which it returns; dst is
// replaced by a fresh vector unless it has the feature dimension.
func featuresTo(dst mat.Vector, prevPowers, voltages []float64, accDMR float64,
	periodOfDay, periodsPerDay int, p supercap.Params) mat.Vector {

	x := dst
	if len(x) != FeatureDim(len(voltages)) {
		x = mat.NewVector(FeatureDim(len(voltages)))
	}
	// Down-sample the previous period's powers into solarBins means; the
	// first period has none, and its bins read zero.
	if len(prevPowers) == 0 {
		for b := 0; b < solarBins; b++ {
			x[b] = 0
		}
	} else {
		per := float64(len(prevPowers)) / solarBins
		for b := 0; b < solarBins; b++ {
			lo := int(float64(b) * per)
			hi := int(float64(b+1) * per)
			if hi > len(prevPowers) {
				hi = len(prevPowers)
			}
			if hi <= lo {
				hi = lo + 1
			}
			sum := 0.0
			for _, w := range prevPowers[lo:hi] {
				sum += w
			}
			x[b] = sum / float64(hi-lo) / powerNorm
		}
	}
	for i, v := range voltages {
		x[solarBins+i] = (v - p.VLow) / (p.VHigh - p.VLow)
	}
	x[solarBins+len(voltages)] = accDMR
	phase := 2 * math.Pi * float64(periodOfDay) / float64(periodsPerDay)
	x[solarBins+len(voltages)+1] = 0.5 + 0.5*math.Sin(phase)
	x[solarBins+len(voltages)+2] = 0.5 + 0.5*math.Cos(phase)
	return x
}

// alphaToTargetScale maps the pattern index α into [0, 1] for the network's
// linear head: α is clamped at 2 (anything ≥ 2 behaves identically under
// the δ rule) and halved.
func alphaToTarget(alpha float64) float64 {
	if alpha > 2 {
		alpha = 2
	}
	if alpha < 0 {
		alpha = 0
	}
	return alpha / 2
}

// alphaFromOutput inverts alphaToTarget, clamping the raw head output.
func alphaFromOutput(raw float64) float64 {
	if raw < 0 {
		raw = 0
	}
	if raw > 1 {
		raw = 1
	}
	return raw * 2
}
