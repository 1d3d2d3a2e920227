package ann

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"solarsched/internal/mat"
)

// SerializeVersion is the current on-disk model format version. Version 1
// envelopes (written before provenance existed) carry no "format" field and
// are still read; version 2 adds the training-provenance block.
const SerializeVersion = 2

// Provenance records where a set of weights came from: how much data and
// how many epochs produced them, the final training loss, the RNG seed the
// optimization ran under, and — for fine-tuned models — the digest and
// registry version of the parent weights. It rides inside the weight
// envelope so a model file is self-describing, and the continuous-learning
// registry lifts it into the version manifest unchanged.
type Provenance struct {
	// Samples is the number of supervised (input, target) pairs trained on.
	Samples int `json:"samples,omitempty"`
	// PretrainEpochs and FineEpochs are the unsupervised RBM and supervised
	// BP epoch counts.
	PretrainEpochs int `json:"pretrain_epochs,omitempty"`
	FineEpochs     int `json:"fine_epochs,omitempty"`
	// Loss is the mean loss of the final fine-tuning epoch.
	Loss float64 `json:"loss,omitempty"`
	// Seed is the RNG seed the weights were initialized and trained under.
	Seed uint64 `json:"seed,omitempty"`
	// Parent is the SHA-256 digest of the weights fine-tuning started from
	// ("" for a model trained from scratch); ParentVersion its registry
	// version when known.
	Parent        string `json:"parent,omitempty"`
	ParentVersion int    `json:"parent_version,omitempty"`
}

// netWire is the serialized model: the full configuration and every
// weight, so a trained scheduler can be deployed without retraining.
// WriteJSON writes it as JSON, the format of the model files people handle;
// MarshalBinary writes it as gob, the format of the durable artifact store.
// Format 0 (absent) and 1 are the pre-provenance layout; format 2 adds the
// provenance block.
type netWire struct {
	Format     int         `json:"format,omitempty"`
	Provenance *Provenance `json:"provenance,omitempty"`
	Config     Config      `json:"config"`
	TrunkW     [][]float64 `json:"trunk_weights"` // row-major per layer
	TrunkB     [][]float64 `json:"trunk_biases"`
	CapW       []float64   `json:"cap_weights"`
	CapB       []float64   `json:"cap_bias"`
	AlphaW     []float64   `json:"alpha_weights"`
	AlphaB     float64     `json:"alpha_bias"`
	TeW        []float64   `json:"te_weights"`
	TeB        []float64   `json:"te_bias"`
}

// ErrInvalidModel marks a serialized model whose configuration or weights
// do not describe a network. ReadJSON and UnmarshalBinary wrap it.
var ErrInvalidModel = errors.New("ann: invalid model")

func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidModel}, args...)...)
}

// SetProvenance attaches training provenance to the network; it is carried
// by WriteJSON and restored by ReadJSON. Nil clears it.
func (n *Network) SetProvenance(p *Provenance) { n.prov = p }

// Provenance returns the network's training provenance, or nil for weights
// that predate provenance tracking (format-1 files, untrained networks).
func (n *Network) Provenance() *Provenance { return n.prov }

// wire returns the network's serialized form. It shares the weight slices.
func (n *Network) wire() netWire {
	out := netWire{
		Format:     SerializeVersion,
		Provenance: n.prov,
		Config:     n.cfg,
		CapW:       n.capW.Data, CapB: n.capB,
		AlphaW: n.alphaW, AlphaB: n.alphaB,
		TeW: n.teW.Data, TeB: n.teB,
	}
	for l := range n.trunkW {
		out.TrunkW = append(out.TrunkW, n.trunkW[l].Data)
		out.TrunkB = append(out.TrunkB, n.trunkB[l])
	}
	return out
}

// WriteJSON serializes the trained network.
func (n *Network) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(n.wire())
}

// ReadJSON deserializes a network written by WriteJSON, validating every
// dimension. It reads both the current format and the pre-provenance
// version-1 files (no "format" field), which simply restore with nil
// provenance.
func ReadJSON(r io.Reader) (*Network, error) {
	var in netWire
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("ann: parsing model: %w", err)
	}
	return in.network()
}

// MarshalBinary encodes the network as gob of the wire struct WriteJSON
// writes. encoding/gob calls it, so a *Network inside a gob stream needs
// no codec of its own.
func (n *Network) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n.wire()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary replaces n with the network MarshalBinary encoded, after
// the same validation as ReadJSON.
func (n *Network) UnmarshalBinary(data []byte) error {
	var in netWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return fmt.Errorf("ann: parsing model: %w", err)
	}
	m, err := in.network()
	if err != nil {
		return err
	}
	*n = *m
	return nil
}

// network validates every dimension of in against the weights it carries
// and builds the network over those weights, never allocating for a size
// a model only claims: a corrupt or hostile model costs no more than its
// own bytes. Sizes are checked by division, never by a product that could
// overflow.
func (in *netWire) network() (*Network, error) {
	if in.Format > SerializeVersion {
		return nil, fmt.Errorf("ann: model format %d, this build reads up to %d", in.Format, SerializeVersion)
	}
	cfg := in.Config
	if cfg.InputDim <= 0 || len(cfg.Hidden) == 0 || cfg.CapClasses <= 0 || cfg.TaskCount <= 0 {
		return nil, invalid("config %+v", cfg)
	}
	if len(in.TrunkW) != len(cfg.Hidden) || len(in.TrunkB) != len(cfg.Hidden) {
		return nil, invalid("%d trunk layers, config says %d", len(in.TrunkW), len(cfg.Hidden))
	}
	n := &Network{cfg: cfg, alphaB: in.AlphaB, prov: in.Provenance}
	prev := cfg.InputDim
	for l, h := range cfg.Hidden {
		if h <= 0 {
			return nil, invalid("trunk layer %d has %d units", l, h)
		}
		if !holds(in.TrunkW[l], h, prev) || !holds(in.TrunkB[l], h, 1) {
			return nil, invalid("trunk layer %d has %d weights and %d biases, want %d×%d and %d",
				l, len(in.TrunkW[l]), len(in.TrunkB[l]), h, prev, h)
		}
		n.trunkW = append(n.trunkW, &mat.Matrix{Rows: h, Cols: prev, Data: in.TrunkW[l]})
		n.trunkB = append(n.trunkB, in.TrunkB[l])
		prev = h
	}
	heads := []struct {
		data       []float64
		rows, cols int
		what       string
	}{
		{in.CapW, cfg.CapClasses, prev, "cap weights"},
		{in.CapB, cfg.CapClasses, 1, "cap bias"},
		{in.AlphaW, prev, 1, "alpha weights"},
		{in.TeW, cfg.TaskCount, prev, "te weights"},
		{in.TeB, cfg.TaskCount, 1, "te bias"},
	}
	for _, hd := range heads {
		if !holds(hd.data, hd.rows, hd.cols) {
			return nil, invalid("%s has %d values, want %d×%d", hd.what, len(hd.data), hd.rows, hd.cols)
		}
	}
	n.capW = &mat.Matrix{Rows: cfg.CapClasses, Cols: prev, Data: in.CapW}
	n.teW = &mat.Matrix{Rows: cfg.TaskCount, Cols: prev, Data: in.TeW}
	n.capB, n.alphaW, n.teB = in.CapB, in.AlphaW, in.TeB
	return n, nil
}

// holds reports whether data holds exactly rows×cols values; cols must be
// positive.
func holds(data []float64, rows, cols int) bool {
	return len(data)%cols == 0 && len(data)/cols == rows
}
