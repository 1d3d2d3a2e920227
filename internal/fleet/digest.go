package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"solarsched/internal/core"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// Artifact keys are "<kind>:<sha256 hex>" where the digest covers exactly
// the inputs that determine the artifact, serialized canonically: JSON of
// fixed-field-order structs (no maps — map iteration order would break
// process stability) with float64 values either in JSON shortest form
// (which round-trips bit-exactly) or as raw little-endian bits for bulk
// series. Two processes given the same inputs therefore derive the same
// key, which is what makes golden aggregate digests meaningful in CI.

// artifactKey hashes the canonical JSON of parts under a kind prefix.
func artifactKey(kind string, parts ...any) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			panic(fmt.Sprintf("fleet: artifact key %s: %v", kind, err))
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return kind + ":" + hex.EncodeToString(h.Sum(nil))
}

// traceDigestBlock is how many bytes of slot powers TraceDigest hands the
// hash per Write.
const traceDigestBlock = 4096

// TraceDigest identifies a solar trace by its time base and exact per-slot
// powers (raw float64 bits, mirroring sim.Engine.ConfigDigest). The powers
// are hashed in blocks of traceDigestBlock bytes; the hashed byte stream,
// and so the digest, is the same as one 8-byte write per slot.
func TraceDigest(tr *solar.Trace) string {
	h := sha256.New()
	b, err := json.Marshal(tr.Base)
	if err != nil {
		panic(fmt.Sprintf("fleet: trace digest: %v", err))
	}
	h.Write(b)
	h.Write([]byte{'\n'})
	buf := make([]byte, 0, traceDigestBlock)
	for _, p := range tr.Power {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// GraphDigest identifies a task graph by its full definition: name, tasks,
// edges and NVP count.
func GraphDigest(g *task.Graph) string {
	h := sha256.New()
	b, err := json.Marshal(struct {
		Name    string
		Tasks   []task.Task
		Edges   []task.Edge
		NumNVPs int
	}{g.Name, g.Tasks, g.Edges, g.NumNVPs})
	if err != nil {
		panic(fmt.Sprintf("fleet: graph digest: %v", err))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// planConfigParts returns the digestable view of a PlanConfig: every field
// that changes the offline stage's output. pc.Observer is deliberately
// excluded — instrumentation must never change what gets computed, so it
// must never change the key either.
func planConfigParts(pc core.PlanConfig) any {
	return struct {
		Graph        string
		Base         solar.TimeBase
		Capacitances []float64
		Params       any
		DirectEff    float64
		VBuckets     int
		Delta        float64
		EThFraction  float64
	}{
		Graph:        GraphDigest(pc.Graph),
		Base:         pc.Base,
		Capacitances: pc.Capacitances,
		Params:       pc.Params,
		DirectEff:    pc.DirectEff,
		VBuckets:     pc.VBuckets,
		Delta:        pc.Delta,
		EThFraction:  pc.EThFraction,
	}
}
