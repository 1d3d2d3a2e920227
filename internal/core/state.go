package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"solarsched/internal/ann"
	"solarsched/internal/solar"
)

// proposedState is the cross-period state of the proposed scheduler: the
// recorded solar powers of the running and previous periods, the on-node
// WCMA forecaster, the full DBN weights, the hardening layer's run state
// and — when the hardened watchdog has ever been armed — the nested
// fallback baseline. The slot policy is rebuilt by the next BeginPeriod.
type proposedState struct {
	PrevPowers []float64            `json:"prev_powers"`
	CurPowers  []float64            `json:"cur_powers"`
	WCMA       solar.PredictorState `json:"wcma"`

	// Net is the serialized DBN (ann.Network.WriteJSON). Weights are static
	// after training, but checkpointing them makes a resumed run
	// independent of whatever produced the network — a resume must not
	// depend on retraining reproducing the exact same weights.
	Net json.RawMessage `json:"net"`

	Hard     hardStateSnap   `json:"hard"`
	Fallback json.RawMessage `json:"fallback,omitempty"`
}

// hardStateSnap mirrors hardState with exported fields.
type hardStateSnap struct {
	InFallback     bool      `json:"in_fallback"`
	FallbackLeft   int       `json:"fallback_left"`
	ConsecRejects  int       `json:"consec_rejects"`
	BelowEthStreak int       `json:"below_eth_streak"`
	LastGoodTe     []bool    `json:"last_good_te,omitempty"`
	MissedHist     []float64 `json:"missed_hist,omitempty"`
}

// SnapshotState implements sim.Checkpointable.
func (s *Proposed) SnapshotState() ([]byte, error) {
	var netBuf bytes.Buffer
	if err := s.net.WriteJSON(&netBuf); err != nil {
		return nil, fmt.Errorf("core: proposed snapshot: %w", err)
	}
	st := proposedState{
		PrevPowers: append([]float64(nil), s.prevPowers...),
		CurPowers:  append([]float64(nil), s.curPowers...),
		WCMA:       s.wcma.Snapshot(),
		Net:        json.RawMessage(netBuf.Bytes()),
		Hard: hardStateSnap{
			InFallback:     s.hs.inFallback,
			FallbackLeft:   s.hs.fallbackLeft,
			ConsecRejects:  s.hs.consecRejects,
			BelowEthStreak: s.hs.belowEthStreak,
			LastGoodTe:     append([]bool(nil), s.hs.lastGoodTe...),
			MissedHist:     append([]float64(nil), s.hs.missedHist...),
		},
	}
	if s.fallback != nil {
		blob, err := s.fallback.SnapshotState()
		if err != nil {
			return nil, err
		}
		st.Fallback = blob
	}
	return json.Marshal(st)
}

// RestoreState implements sim.Checkpointable.
func (s *Proposed) RestoreState(data []byte) error {
	var st proposedState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: proposed restore: %w", err)
	}
	if len(st.PrevPowers) != len(s.prevPowers) || len(st.CurPowers) != len(s.curPowers) {
		return fmt.Errorf("core: proposed restore with %d/%d slot powers, period has %d",
			len(st.PrevPowers), len(st.CurPowers), len(s.prevPowers))
	}
	copy(s.prevPowers, st.PrevPowers)
	copy(s.curPowers, st.CurPowers)
	if err := s.wcma.RestoreState(st.WCMA); err != nil {
		return err
	}
	net, err := ann.ReadJSON(bytes.NewReader(st.Net))
	if err != nil {
		return fmt.Errorf("core: proposed restore net: %w", err)
	}
	got, want := net.Config(), s.net.Config()
	if got.InputDim != want.InputDim || got.CapClasses != want.CapClasses ||
		got.TaskCount != want.TaskCount || len(got.Hidden) != len(want.Hidden) {
		return fmt.Errorf("core: proposed restore net config %+v, scheduler built with %+v", got, want)
	}
	net.SetObserver(s.obsReg)
	s.net = net
	s.hs = hardState{
		inFallback:     st.Hard.InFallback,
		fallbackLeft:   st.Hard.FallbackLeft,
		consecRejects:  st.Hard.ConsecRejects,
		belowEthStreak: st.Hard.BelowEthStreak,
		lastGoodTe:     append([]bool(nil), st.Hard.LastGoodTe...),
		missedHist:     append([]float64(nil), st.Hard.MissedHist...),
	}
	if st.Fallback != nil {
		s.ensureFallback(s.pc.Base)
		if err := s.fallback.RestoreState(st.Fallback); err != nil {
			return err
		}
	}
	return nil
}

// horizonState is the cross-period state of the receding-horizon planner.
// The policy and decision are recomputed from scratch at every period
// boundary and the forecaster is stateless — deterministic in (now,
// target) — but the LUT memo is path-dependent: the first profile queried
// in a quantization bucket becomes its representative, so a table regrown
// from the resume point would answer some lookups differently than the
// uninterrupted run's table. The entries travel with the checkpoint.
type horizonState struct {
	Expansions int        `json:"expansions"`
	Replans    int        `json:"replans"`
	LUTBuilds  int        `json:"lut_builds"`
	LUTLookups int        `json:"lut_lookups"`
	LUT        []LUTEntry `json:"lut,omitempty"`
}

// SnapshotState implements sim.Checkpointable.
func (h *Horizon) SnapshotState() ([]byte, error) {
	return json.Marshal(horizonState{
		Expansions: h.Expansions,
		Replans:    h.Replans,
		LUTBuilds:  h.lut.Builds,
		LUTLookups: h.lut.Lookups,
		LUT:        h.lut.SnapshotEntries(),
	})
}

// RestoreState implements sim.Checkpointable.
func (h *Horizon) RestoreState(data []byte) error {
	var st horizonState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: horizon restore: %w", err)
	}
	if err := h.lut.RestoreEntries(st.LUT); err != nil {
		return fmt.Errorf("core: horizon restore: %w", err)
	}
	h.Expansions = st.Expansions
	h.Replans = st.Replans
	h.lut.Builds = st.LUTBuilds
	h.lut.Lookups = st.LUTLookups
	return nil
}
