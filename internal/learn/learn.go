// Package learn is the continuous-learning subsystem that closes the
// paper's offline-train / online-infer split into a production ML loop.
//
// The DAC'15 design trains the §5 DBN once, offline, on DP-teacher samples
// from a fixed training trace; a fielded deployment then drifts — the solar
// climate moves with the seasons, the workload mix shifts — and the static
// policy's deadline-miss rate decays with it. This package keeps the policy
// live in four stages, each its own component:
//
//	Telemetry   — the serving layer appends every /v1/decide observation
//	              (previous-period solar powers, bank voltages, accumulated
//	              DMR, the decision taken) into a bounded, crash-safe log
//	              (TelemetryLog).
//	Training    — a background Trainer cycle drains the log, reconstructs
//	              the observed solar climate as a trace, labels it with the
//	              same clairvoyant DP teacher the offline pipeline uses
//	              (through the shared fleet artifact cache), and fine-tunes
//	              a clone of the serving weights on those samples.
//	Registry    — candidate and serving models are versioned in a
//	              content-addressed model store with full provenance
//	              (sample count, epochs, loss, seed, parent version), with
//	              promote and instant-rollback operations (Registry).
//	Shadow/gate — candidates shadow-score live decide traffic (divergence
//	              per tenant, off the answering path) and are promoted only
//	              when a configurable gate passes: a canary A/B simulation
//	              on held-out drifted days must show the candidate beating
//	              the incumbent's realized DMR (Shadow, Gate).
//
// Everything is deterministic given the telemetry: training seeds derive
// from the parent weights' configuration, the DP teacher is deterministic,
// and promotion decisions replay bit-identically — the same discipline the
// rest of the repository holds itself to.
package learn

import (
	"fmt"

	"solarsched/internal/atomicio"
	"solarsched/internal/fleet"
	"solarsched/internal/store"
)

// fileFormat is the envelope of the registry manifest and the telemetry
// segments: a store entry's, keyed by a fixed label, so a torn or corrupt
// file is detected the way a corrupt entry is.
var fileFormat = atomicio.Format{Magic: store.Magic, Version: store.FormatVersion}

// Key canonicalizes a model lineage: one lineage per (graph, bank size,
// offline-training spec) triple, the same identity fleet.NetworkFor caches
// networks under. The serving layer derives it from the decide request;
// the registry and trainer key everything on it.
func Key(graph string, h int, train fleet.TrainSpec) string {
	if h <= 0 {
		h = 4
	}
	if train == (fleet.TrainSpec{}) {
		train = fleet.DefaultTrainSpec()
	}
	return fmt.Sprintf("%s|%d|%+v", graph, h, train)
}

// LineageSpec is the stored recipe of a lineage: enough to rebuild the
// base (offline-trained) network and its plan configuration through
// fleet.NetworkFor after a restart.
type LineageSpec struct {
	Graph string          `json:"graph"`
	H     int             `json:"h"`
	Train fleet.TrainSpec `json:"train"`
}
