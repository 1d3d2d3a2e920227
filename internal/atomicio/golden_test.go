package atomicio_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"solarsched/internal/ckpt"
	"solarsched/internal/learn"
	"solarsched/internal/store"
)

// The files under testdata were written by the code that predates the
// shared envelope codec, one per format that uses it. Each test decodes its
// file through the format's own API and re-encodes the decoded inputs,
// which must give back the file byte for byte: files written before the
// codec still read, and files written now still read in the older code.

const goldenEntryKey = "bank:ce6cc8e443711a1e1e02917db176254441f871f20e74c8b1b6bf185f56776fa6"

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenFormats(t *testing.T) {
	t.Run("checkpoint", goldenCheckpoint)
	t.Run("store_entry", goldenStoreEntry)
	t.Run("registry_manifest", goldenRegistryManifest)
	t.Run("telemetry_segment", goldenTelemetrySegment)
}

func goldenCheckpoint(t *testing.T) {
	want := readGolden(t, "checkpoint.ckpt")
	rs, hdr, err := ckpt.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 95 || hdr.NextPeriod != 95 || rs.NextPeriod != 95 || hdr.SchedulerName != rs.SchedulerName {
		t.Fatalf("decoded header %+v against state next=%d scheduler=%q", hdr, rs.NextPeriod, rs.SchedulerName)
	}
	got, err := ckpt.Encode(rs, hdr.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded checkpoint differs:\n got %.300s\nwant %.300s", got, want)
	}
}

func goldenStoreEntry(t *testing.T) {
	want := readGolden(t, "entry.art")
	kind, digest, _ := strings.Cut(goldenEntryKey, ":")

	old := t.TempDir()
	if err := os.MkdirAll(filepath.Join(old, "objects", kind), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "objects", kind, digest+".art"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(old, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.Get(goldenEntryKey)
	if err != nil {
		t.Fatal(err)
	}

	fresh := t.TempDir()
	st, err = store.Open(fresh, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(goldenEntryKey, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh, "objects", kind, digest+".art"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded store entry differs:\n got %s\nwant %s", got, want)
	}
}

func goldenRegistryManifest(t *testing.T) {
	want := readGolden(t, "registry.json")
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "registry.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := learn.OpenRegistry(old, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := reg.Lineages()
	if len(keys) != 2 {
		t.Fatalf("decoded lineages %q, want 2", keys)
	}

	fresh := t.TempDir()
	again, err := learn.OpenRegistry(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		spec, _ := reg.Lineage(k)
		if err := again.EnsureLineage(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(fresh, "registry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded manifest differs:\n got %s\nwant %s", got, want)
	}
}

func goldenTelemetrySegment(t *testing.T) {
	const seg = "seg-0000000000.tlog"
	want := readGolden(t, "segment.tlog")
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, seg), want, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := learn.OpenTelemetry(old, learn.TelemetryConfig{FlushEvery: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := log.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}

	fresh := t.TempDir()
	log, err = learn.OpenTelemetry(fresh, learn.TelemetryConfig{FlushEvery: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		log.Append(r) // renumbers from 1, as the golden segment was numbered
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh, seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded telemetry segment differs:\n got %s\nwant %s", got, want)
	}
}
