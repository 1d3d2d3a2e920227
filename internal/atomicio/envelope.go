package atomicio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped into every Open rejection: a missing or malformed
// header line, a foreign magic or version, or a payload whose length or
// SHA-256 disagrees with the header. Each format wraps its own sentinel
// around it (ckpt.ErrCorruptCheckpoint, store.ErrCorruptArtifact).
var ErrCorrupt = errors.New("atomicio: corrupt envelope")

// Format is an envelope format's identity: the first two fields of its
// header line.
type Format struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

// Digest is the payload's length and SHA-256: the last two fields of a
// header line.
type Digest struct {
	PayloadBytes  int    `json:"payload_bytes"`
	PayloadSHA256 string `json:"payload_sha256"`
}

func (f *Format) format() *Format { return f }
func (d *Digest) digest() *Digest { return d }

// Header is a pointer to a format's header struct. The struct embeds Format
// first and Digest last, with the format's own fields between them, so its
// JSON line reads magic, version, the format's fields, payload_bytes and
// payload_sha256.
type Header interface {
	format() *Format
	digest() *Digest
}

// Keyed is the header of an envelope named by one key: a store entry's
// cache key, or the label of a learn manifest or telemetry segment.
type Keyed struct {
	Format
	Key string `json:"key"`
	Digest
}

// Seal sets hdr's Format to f and its Digest from payload, and returns the
// envelope: hdr as one JSON line, then the payload.
func Seal(f Format, hdr Header, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	*hdr.format() = f
	*hdr.digest() = Digest{PayloadBytes: len(payload), PayloadSHA256: hex.EncodeToString(sum[:])}
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("atomicio: encode header: %w", err)
	}
	out := make([]byte, 0, len(line)+1+len(payload))
	out = append(out, line...)
	out = append(out, '\n')
	return append(out, payload...), nil
}

// Open verifies an envelope of format f, decoding its header line into hdr,
// and returns the payload as a subslice of data. A failure means the file
// is torn, truncated or foreign, and its payload must not be used.
func Open(f Format, data []byte, hdr Header) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header line", ErrCorrupt)
	}
	if err := json.Unmarshal(data[:nl], hdr); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if got := hdr.format(); got.Magic != f.Magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, got.Magic, f.Magic)
	} else if got.Version != f.Version {
		return nil, fmt.Errorf("%w: %s version %d, this build reads %d", ErrCorrupt, f.Magic, got.Version, f.Version)
	}
	d := hdr.digest()
	payload := data[nl+1:]
	if len(payload) != d.PayloadBytes {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d (torn write)", ErrCorrupt, len(payload), d.PayloadBytes)
	}
	sum := sha256.Sum256(payload)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if string(hexSum[:]) != d.PayloadSHA256 {
		return nil, fmt.Errorf("%w: payload sha256 %s, header says %s", ErrCorrupt, hexSum[:], d.PayloadSHA256)
	}
	return payload, nil
}

// OpenKeyed is Open for a Keyed envelope, which must also hold key.
func OpenKeyed(f Format, data []byte, key string) ([]byte, error) {
	var hdr Keyed
	payload, err := Open(f, data, &hdr)
	if err == nil && hdr.Key != key {
		return nil, fmt.Errorf("%w: envelope holds key %q, want %q", ErrCorrupt, hdr.Key, key)
	}
	return payload, err
}
