package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/store"
	"solarsched/internal/supercap"
)

// restartsPerCycle is how many reopen + verify + resolve passes follow
// each cold pass; restart_s is their median.
const restartsPerCycle = 5

// pass is one resolve of every configuration through a durable cache.
type pass struct {
	cache   *fleet.Cache
	tp      *timedPersister
	elapsed time.Duration
	ref     float64       // elapsed in reference time, when a hostRef was given
	verify  time.Duration // restart passes only
}

// probe, when non-nil, makes a pass walk the cache's typed accessors one
// by one with a span around each, instead of calling fleet.NetworkFor.
type probe struct {
	tr  *tracer
	reg *obs.Registry
}

// resolveAll resolves cfgs one after another (the process has one P) and
// returns the wall time. With a hostRef it also returns the time in
// reference seconds, each configuration scaled by the kernel samples
// around it, since one cold pass lasts long enough for the host's speed
// to change under it.
func resolveAll(ctx context.Context, c *fleet.Cache, cfgs []netConfig, pr *probe, passName string, h *hostRef) (time.Duration, float64, error) {
	var wall time.Duration
	refSeconds := 0.0
	var before time.Duration
	if h != nil {
		before = h.sample()
	}
	for _, cfg := range cfgs {
		start := time.Now()
		if err := resolve(ctx, c, cfg, pr, passName); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		wall += d
		if h != nil {
			after := h.sample()
			refSeconds += scale(before, after) * d.Seconds()
			before = after
		}
	}
	return wall, refSeconds, nil
}

// coldPass opens a fresh store at dir and resolves every configuration
// from an empty cache: trace, sizing, DP teacher samples and training.
func coldPass(ctx context.Context, dir string, cfgs []netConfig, pr *probe, h *hostRef) (*pass, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	p := &pass{tp: &timedPersister{inner: st}}
	p.cache = fleet.NewDurableCache(nil, p.tp)
	p.elapsed, p.ref, err = resolveAll(ctx, p.cache, cfgs, pr, "cold", h)
	return p, err
}

// restartPass reopens the store at dir, verifies every entry and resolves
// every configuration again in a fresh cache, now from disk.
func restartPass(ctx context.Context, dir string, cfgs []netConfig, pr *probe) (*pass, error) {
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	vs, err := st.Verify()
	if err != nil {
		return nil, err
	}
	if vs.Quarantined > 0 {
		return nil, fmt.Errorf("store verify quarantined %d of %d entries", vs.Quarantined, vs.Checked)
	}
	p := &pass{tp: &timedPersister{inner: st}, verify: time.Since(start)}
	p.cache = fleet.NewDurableCache(nil, p.tp)
	if _, _, err := resolveAll(ctx, p.cache, cfgs, pr, "restart", nil); err != nil {
		return nil, err
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// resolve makes cfg's trained network available in c. Untraced, it is the
// daemon's own call, fleet.NetworkFor. Traced, it calls the accessors
// NetworkFor is built from in pipeline order, each in its own span; on a
// restart it skips Patterns and Samples, which NetworkFor never reaches
// once sizing and network come from disk.
func resolve(ctx context.Context, c *fleet.Cache, cfg netConfig, pr *probe, passName string) error {
	if pr == nil {
		_, _, err := fleet.NetworkFor(ctx, c, nil, cfg.Graph, cfg.H, cfg.Train)
		return err
	}
	g, err := graphOf(cfg.Graph)
	if err != nil {
		return err
	}
	ref := cfg.String()
	parent := pr.tr.begin(passName+"/config", ref, 0)
	defer pr.tr.finish(parent)
	step := func(name string, fn func() error) error {
		return pr.tr.timed(passName+"/"+name, ref, parent, fn)
	}

	var trainTr *solar.Trace
	if err := step("solar.trace", func() (err error) {
		trainTr, err = c.Trace(ctx, genConfig(cfg.Train))
		return err
	}); err != nil {
		return err
	}
	cold := passName == "cold"
	if cold {
		if err := step("sizing.patterns", func() error {
			_, err := c.Patterns(ctx, trainTr, g, sim.DefaultDirectEff)
			return err
		}); err != nil {
			return err
		}
	}
	var bank []float64
	if err := step("sizing.bank", func() (err error) {
		bank, err = c.Sizing(ctx, trainTr, g, cfg.H, supercap.DefaultParams(), sim.DefaultDirectEff)
		return err
	}); err != nil {
		return err
	}
	pc := core.DefaultPlanConfig(g, trainTr.Base, bank)
	pc.Observer = pr.reg
	if cold {
		if err := step("core.samples", func() error {
			_, err := c.Samples(ctx, pc, trainTr)
			return err
		}); err != nil {
			return err
		}
	}
	topt := core.DefaultTrainOptions()
	topt.Fine.Epochs = cfg.Train.FineEpochs
	return step("ann.network", func() error {
		_, err := c.Network(ctx, pc, trainTr, topt)
		return err
	})
}

// digests hashes, per configuration in order, the trained network and the
// teacher samples that c resolves. Two passes that built or read the same
// artifacts give the same two digests.
func digests(ctx context.Context, c *fleet.Cache, cfgs []netConfig) (nets, samples string, err error) {
	hn, hs := sha256.New(), sha256.New()
	for _, cfg := range cfgs {
		pc, net, err := fleet.NetworkFor(ctx, c, nil, cfg.Graph, cfg.H, cfg.Train)
		if err != nil {
			return "", "", err
		}
		trainTr, err := c.Trace(ctx, genConfig(cfg.Train))
		if err != nil {
			return "", "", err
		}
		ss, err := c.Samples(ctx, pc, trainTr)
		if err != nil {
			return "", "", err
		}
		nb, err := netBytes(net)
		if err != nil {
			return "", "", err
		}
		sb, err := json.Marshal(ss)
		if err != nil {
			return "", "", err
		}
		fmt.Fprintf(hn, "%s\n%x\n", cfg, sha256.Sum256(nb))
		fmt.Fprintf(hs, "%s\n%x\n", cfg, sha256.Sum256(sb))
	}
	return hex.EncodeToString(hn.Sum(nil)), hex.EncodeToString(hs.Sum(nil)), nil
}

func netBytes(net *ann.Network) ([]byte, error) {
	var buf bytes.Buffer
	err := net.WriteJSON(&buf)
	return buf.Bytes(), err
}
