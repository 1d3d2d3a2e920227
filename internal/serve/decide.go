package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/learn"
)

// decideRequest is the body of POST /v1/decide: the observable state a
// node carries to a period boundary. Graph/H/Train select (and, on first
// use, train) the DBN via the shared artifact cache; the remaining fields
// are the feature-vector inputs of §5.1.
type decideRequest struct {
	Graph string           `json:"graph"`
	H     int              `json:"h,omitempty"`
	Train *fleet.TrainSpec `json:"train,omitempty"`

	// LastPeriodPowers is the previous period's per-slot harvested power
	// (W); empty means a cold start.
	LastPeriodPowers []float64 `json:"last_period_powers,omitempty"`
	// Voltages is the per-capacitor terminal voltage (V), one per bank
	// member (h entries).
	Voltages []float64 `json:"voltages"`
	// AccumulatedDMR is the deadline-miss rate accumulated so far.
	AccumulatedDMR float64 `json:"accumulated_dmr,omitempty"`
	// PeriodOfDay indexes the boundary within the day.
	PeriodOfDay int `json:"period_of_day"`
	// ActiveCap is the currently active capacitor index.
	ActiveCap int `json:"active_cap"`
}

// decideResponse is the wire form of core.OnlineDecision.
type decideResponse struct {
	Cap          int     `json:"cap"`
	Alpha        float64 `json:"alpha"`
	Stage        string  `json:"stage"` // "intra" | "inter"
	Te           []bool  `json:"te"`
	Switch       bool    `json:"switch"`
	Migrate      bool    `json:"migrate"`
	EThJoules    float64 `json:"eth_joules"`
	UsableJoules float64 `json:"usable_joules"`
}

// handleDecide serves POST /v1/decide: one online DBN inference (features
// → forward pass → predecessor closure → E_th/δ rules) against a network
// trained once per (graph, h, train) configuration and cached for every
// later call. With tenancy configured the request is first authenticated
// and charged against the tenant's token bucket.
func (s *Server) handleDecide(w http.ResponseWriter, req *http.Request) {
	sw := s.m.decideSecs.Start()
	defer sw.Stop()
	span := s.reg.StartSpan("serve/decide").Tag("request_id", RequestID(req.Context()))
	defer span.End()

	tenant := s.tenants.lookup(req)
	if tenant == nil {
		s.m.unauthorized.Inc()
		httpError(w, http.StatusUnauthorized, "missing or unknown api key")
		return
	}
	span.Tag("tenant", tenant.Name)
	s.m.tenantDecides(tenant.Name).Inc()
	if !tenant.bucket.allow() {
		s.m.tenantThrottled(tenant.Name).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "tenant %q over its decide rate limit", tenant.Name)
		return
	}

	var dr decideRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dr); err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	var train fleet.TrainSpec
	if dr.Train != nil {
		train = *dr.Train
	}
	pc, net, err := fleet.NetworkFor(req.Context(), s.cache, s.reg, dr.Graph, dr.H, train)
	if err != nil {
		httpError(w, http.StatusBadRequest, "resolving network: %v", err)
		return
	}
	// Continuous learning: a promoted model from the registry overrides the
	// offline-trained network for its lineage.
	lineage := learn.Key(dr.Graph, dr.H, train)
	modelDigest := ""
	if s.learn != nil {
		if onet, info, ok := s.learn.ServingOverride(lineage); ok {
			net = onet
			modelDigest = info.Digest
			span.Tag("model_version", strconv.Itoa(info.Version))
		}
	}
	creq := core.DecideRequest{
		PrevPowers:     dr.LastPeriodPowers,
		Voltages:       dr.Voltages,
		AccumulatedDMR: dr.AccumulatedDMR,
		PeriodOfDay:    dr.PeriodOfDay,
		ActiveCap:      dr.ActiveCap,
	}
	// Decide fails only on what Validate rejects, so every error here is
	// the sender's: a non-physical or mis-shaped request.
	d, err := core.Decide(pc, net, creq)
	if err != nil {
		httpError(w, http.StatusBadRequest, "deciding: %v", err)
		return
	}
	if s.learn != nil {
		s.learn.RecordDecision(lineage, tenant.Name,
			learn.LineageSpec{Graph: dr.Graph, H: dr.H, Train: train},
			creq, d, modelDigest)
	}
	stage := "inter"
	if d.Intra {
		stage = "intra"
	}
	writeJSON(w, http.StatusOK, decideResponse{
		Cap: d.Cap, Alpha: d.Alpha, Stage: stage, Te: d.Te,
		Switch: d.Switch, Migrate: d.Migrate,
		EThJoules: d.EThJoules, UsableJoules: d.UsableJoules,
	})
}
