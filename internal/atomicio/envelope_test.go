package atomicio_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarsched/internal/atomicio"
	"solarsched/internal/ckpt"
	"solarsched/internal/store"
)

var (
	ckptFormat  = atomicio.Format{Magic: ckpt.Magic, Version: ckpt.FormatVersion}
	storeFormat = atomicio.Format{Magic: store.Magic, Version: store.FormatVersion}
	testFormat  = atomicio.Format{Magic: "test-envelope", Version: 1}
)

// seqHeader is a format header with a field of its own, as ckpt's is.
type seqHeader struct {
	atomicio.Format
	Seq uint64 `json:"seq"`
	atomicio.Digest
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("payload\nwith a newline")
	data, err := atomicio.Seal(testFormat, &seqHeader{Seq: 7}, payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	line := `{"magic":"test-envelope","version":1,"seq":7,"payload_bytes":22,"payload_sha256":"` +
		hex.EncodeToString(sum[:]) + `"}` + "\n"
	if string(data) != line+string(payload) {
		t.Fatalf("sealed envelope:\n%s\nwant:\n%s%s", data, line, payload)
	}
	var hdr seqHeader
	got, err := atomicio.Open(testFormat, data, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || hdr.Seq != 7 || hdr.Format != testFormat || hdr.PayloadBytes != len(payload) {
		t.Fatalf("opened %q under %+v", got, hdr)
	}

	keyed, err := atomicio.Seal(testFormat, &atomicio.Keyed{Key: "k1"}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := atomicio.OpenKeyed(testFormat, keyed, "k1"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("OpenKeyed: %q, %v", got, err)
	}
	if _, err := atomicio.OpenKeyed(testFormat, keyed, "k2"); !errors.Is(err, atomicio.ErrCorrupt) {
		t.Fatalf("OpenKeyed under another key: %v, want ErrCorrupt", err)
	}
}

// corruptions turn a valid envelope into one every reader must reject.
var corruptions = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"truncated", func(d []byte) []byte { return d[:len(d)-1] }},
	{"extended", func(d []byte) []byte { return append(d, 'x') }},
	{"flipped payload byte", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }},
	{"missing newline", func(d []byte) []byte { return d[:bytes.IndexByte(d, '\n')] }},
	{"wrong magic", func(d []byte) []byte {
		return bytes.Replace(d, []byte(`"magic":"`), []byte(`"magic":"x`), 1)
	}},
	{"wrong version", func(d []byte) []byte {
		return bytes.Replace(d, []byte(`"version":1,`), []byte(`"version":2,`), 1)
	}},
}

func corrupted(data []byte, mutate func([]byte) []byte) []byte {
	return mutate(append([]byte(nil), data...))
}

func TestOpenRejectsCorruption(t *testing.T) {
	plain, err := atomicio.Seal(testFormat, &seqHeader{Seq: 1}, []byte("some payload"))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := readGolden(t, "checkpoint.ckpt")
	entry := readGolden(t, "entry.art")
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if _, err := atomicio.Open(testFormat, corrupted(plain, c.mutate), &seqHeader{}); !errors.Is(err, atomicio.ErrCorrupt) {
				t.Errorf("Open: %v, want ErrCorrupt", err)
			}
			_, _, err := ckpt.Decode(corrupted(checkpoint, c.mutate))
			if !errors.Is(err, ckpt.ErrCorruptCheckpoint) || !errors.Is(err, atomicio.ErrCorrupt) {
				t.Errorf("ckpt.Decode: %v, want ErrCorruptCheckpoint", err)
			}
			if err := getThroughStore(t, corrupted(entry, c.mutate)); !errors.Is(err, store.ErrCorruptArtifact) {
				t.Errorf("store Get: %v, want ErrCorruptArtifact", err)
			}
		})
	}
}

// getThroughStore places data as the golden entry of a fresh store and
// reads it back.
func getThroughStore(t *testing.T, data []byte) error {
	t.Helper()
	dir := t.TempDir()
	kind, digest, _ := strings.Cut(goldenEntryKey, ":")
	if err := os.MkdirAll(filepath.Join(dir, "objects", kind), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", kind, digest+".art"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Get(goldenEntryKey)
	return err
}

// FuzzOpen holds the codec to two properties on any input: it never
// panics, and a payload it accepts has exactly the length and SHA-256 its
// header states.
func FuzzOpen(f *testing.F) {
	for _, name := range []string{"checkpoint.ckpt", "entry.art", "registry.json", "segment.tlog"} {
		data := readGolden(f, name)
		f.Add(data)
		for _, c := range corruptions {
			f.Add(corrupted(data, c.mutate))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, form := range []atomicio.Format{ckptFormat, storeFormat} {
			var hdr atomicio.Keyed
			payload, err := atomicio.Open(form, data, &hdr)
			if err != nil {
				if !errors.Is(err, atomicio.ErrCorrupt) {
					t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			sum := sha256.Sum256(payload)
			if len(payload) != hdr.PayloadBytes || hex.EncodeToString(sum[:]) != hdr.PayloadSHA256 {
				t.Fatalf("accepted %d-byte payload against header %+v", len(payload), hdr.Digest)
			}
			if hdr.Format != form {
				t.Fatalf("accepted format %+v, want %+v", hdr.Format, form)
			}
		}
		if _, _, err := ckpt.Decode(data); err != nil && !errors.Is(err, ckpt.ErrCorruptCheckpoint) {
			t.Fatalf("ckpt.Decode rejection %v does not wrap ErrCorruptCheckpoint", err)
		}
	})
}
