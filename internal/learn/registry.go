package learn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"solarsched/internal/ann"
	"solarsched/internal/atomicio"
	"solarsched/internal/obs"
	"solarsched/internal/store"
)

// manifestLabel is the envelope key of the registry manifest file.
const manifestLabel = "solarsched-model-registry"

// manifestFormat is the manifest schema version.
const manifestFormat = 1

// Model lifecycle states recorded in the manifest.
const (
	StateCandidate = "candidate" // registered, not serving
	StateServing   = "serving"   // the live model of its lineage
	StateRetired   = "retired"   // was serving, replaced (rollback target)
)

// VersionInfo describes one registered model: a monotonic version number,
// the lineage it belongs to, the content digest of its weights, its
// lifecycle state and full training provenance.
type VersionInfo struct {
	Version     int            `json:"version"`
	Key         string         `json:"key"`
	Digest      string         `json:"digest"`
	State       string         `json:"state"`
	Provenance  ann.Provenance `json:"provenance"`
	CreatedUnix int64          `json:"created_unix"`
}

// manifest is the registry's on-disk index: versions plus, per lineage,
// the serving and previous-serving version (the rollback target), and the
// lineage recipes needed to rebuild base networks after a restart.
type manifest struct {
	Format      int                    `json:"format"`
	NextVersion int                    `json:"next_version"`
	Serving     map[string]int         `json:"serving"`
	Previous    map[string]int         `json:"previous"`
	Lineages    map[string]LineageSpec `json:"lineages"`
	Versions    []VersionInfo          `json:"versions"`
}

// Registry is the versioned model store: weight payloads live in a
// content-addressed artifact store under kind "dbn" (the same
// self-verifying envelope + quarantine discipline as every other offline
// artifact), and the manifest indexes them by monotonic version with
// provenance. All methods are safe for concurrent use; Serving is cheap
// enough for the decide hot path.
type Registry struct {
	dir string
	st  *store.Store

	mu  sync.RWMutex
	man manifest

	netCache sync.Map // digest → *ann.Network

	mRegistered *obs.Counter
	mPromotions *obs.Counter
	mRollbacks  *obs.Counter
	mServing    *obs.Gauge
}

// OpenRegistry opens (creating if necessary) the model registry at dir:
// the manifest at dir/registry.json and the model store under dir/models.
// The model store deliberately carries no GC budget — serving and rollback
// models are not rebuildable artifacts and must never be evicted.
func OpenRegistry(dir string, reg *obs.Registry) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("learn: empty registry dir")
	}
	st, err := store.Open(filepath.Join(dir, "models"), store.Options{Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("learn: opening model store: %w", err)
	}
	r := &Registry{
		dir:         dir,
		st:          st,
		mRegistered: reg.Counter("learn_models_registered_total"),
		mPromotions: reg.Counter("learn_promotions_total"),
		mRollbacks:  reg.Counter("learn_rollbacks_total"),
		mServing:    reg.Gauge("learn_serving_version"),
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	return r, nil
}

// manifestPath returns the manifest location.
func (r *Registry) manifestPath() string { return filepath.Join(r.dir, "registry.json") }

func (r *Registry) load() error {
	r.man = manifest{
		Format:      manifestFormat,
		NextVersion: 1,
		Serving:     map[string]int{},
		Previous:    map[string]int{},
		Lineages:    map[string]LineageSpec{},
	}
	data, err := os.ReadFile(r.manifestPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("learn: reading manifest: %w", err)
	}
	payload, err := atomicio.OpenKeyed(fileFormat, data, manifestLabel)
	if err != nil {
		return fmt.Errorf("learn: manifest corrupt (restore from a backup or remove %s): %w", r.manifestPath(), err)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return fmt.Errorf("learn: decoding manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return fmt.Errorf("learn: manifest format %d, this build reads %d", m.Format, manifestFormat)
	}
	if m.Serving == nil {
		m.Serving = map[string]int{}
	}
	if m.Previous == nil {
		m.Previous = map[string]int{}
	}
	if m.Lineages == nil {
		m.Lineages = map[string]LineageSpec{}
	}
	if m.NextVersion < 1 {
		m.NextVersion = 1
	}
	r.man = m
	return nil
}

// saveLocked persists the manifest atomically. Callers hold r.mu.
func (r *Registry) saveLocked() error {
	payload, err := json.Marshal(r.man)
	if err != nil {
		return fmt.Errorf("learn: encoding manifest: %w", err)
	}
	sealed, err := atomicio.Seal(fileFormat, &atomicio.Keyed{Key: manifestLabel}, payload)
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(r.manifestPath(), sealed, 0o644); err != nil {
		return fmt.Errorf("learn: writing manifest: %w", err)
	}
	return nil
}

// EnsureLineage records the recipe of a lineage on first sight so the
// registry (and the trainer, and the model CLI) can rebuild its base
// network after a restart. Idempotent.
func (r *Registry) EnsureLineage(key string, spec LineageSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.man.Lineages[key]; ok {
		return nil
	}
	r.man.Lineages[key] = spec
	return r.saveLocked()
}

// Lineage returns the stored recipe of key.
func (r *Registry) Lineage(key string) (LineageSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	spec, ok := r.man.Lineages[key]
	return spec, ok
}

// Lineages returns every known lineage key, sorted.
func (r *Registry) Lineages() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := make([]string, 0, len(r.man.Lineages))
	for k := range r.man.Lineages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WeightsDigest returns the content digest of a network's serialized
// weights — the identity models are stored, compared and rolled back by.
func WeightsDigest(net *ann.Network) (string, []byte, error) {
	var buf bytes.Buffer
	if err := net.WriteJSON(&buf); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes(), nil
}

// Register stores net as a new candidate version of lineage key. The
// version number is monotonic across all lineages; provenance rides in
// from the network's own envelope.
func (r *Registry) Register(key string, net *ann.Network) (VersionInfo, error) {
	digest, payload, err := WeightsDigest(net)
	if err != nil {
		return VersionInfo{}, fmt.Errorf("learn: serializing model: %w", err)
	}
	if err := r.st.Put("dbn:"+digest, payload); err != nil {
		return VersionInfo{}, fmt.Errorf("learn: storing model: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	info := VersionInfo{
		Version:     r.man.NextVersion,
		Key:         key,
		Digest:      digest,
		State:       StateCandidate,
		CreatedUnix: time.Now().Unix(),
	}
	if p := net.Provenance(); p != nil {
		info.Provenance = *p
	}
	r.man.NextVersion++
	r.man.Versions = append(r.man.Versions, info)
	if err := r.saveLocked(); err != nil {
		return VersionInfo{}, err
	}
	r.netCache.Store(digest, net)
	r.mRegistered.Inc()
	return info, nil
}

// findLocked returns the index of version in the manifest, or -1.
func (r *Registry) findLocked(version int) int {
	for i := range r.man.Versions {
		if r.man.Versions[i].Version == version {
			return i
		}
	}
	return -1
}

// Promote makes version the serving model of its lineage. The displaced
// serving version (if any) becomes the rollback target. The switch is
// atomic with respect to Serving: the next decide resolves the new model.
func (r *Registry) Promote(key string, version int) (VersionInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.findLocked(version)
	if i < 0 {
		return VersionInfo{}, fmt.Errorf("learn: unknown model version %d", version)
	}
	if r.man.Versions[i].Key != key {
		return VersionInfo{}, fmt.Errorf("learn: version %d belongs to lineage %q, not %q", version, r.man.Versions[i].Key, key)
	}
	if cur, ok := r.man.Serving[key]; ok {
		if cur == version {
			return r.man.Versions[i], nil
		}
		if j := r.findLocked(cur); j >= 0 {
			r.man.Versions[j].State = StateRetired
		}
		r.man.Previous[key] = cur
	}
	r.man.Serving[key] = version
	r.man.Versions[i].State = StateServing
	if err := r.saveLocked(); err != nil {
		return VersionInfo{}, err
	}
	r.mPromotions.Inc()
	r.mServing.Set(float64(version))
	return r.man.Versions[i], nil
}

// Rollback instantly restores the lineage's previous serving version. The
// rolled-back model becomes the new rollback target, so a mistaken
// rollback is itself reversible.
func (r *Registry) Rollback(key string) (VersionInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.man.Previous[key]
	if !ok {
		return VersionInfo{}, fmt.Errorf("learn: lineage %q has no previous version to roll back to", key)
	}
	cur, hasCur := r.man.Serving[key]
	i := r.findLocked(prev)
	if i < 0 {
		return VersionInfo{}, fmt.Errorf("learn: previous version %d missing from manifest", prev)
	}
	if hasCur {
		if j := r.findLocked(cur); j >= 0 {
			r.man.Versions[j].State = StateRetired
		}
		r.man.Previous[key] = cur
	} else {
		delete(r.man.Previous, key)
	}
	r.man.Serving[key] = prev
	r.man.Versions[i].State = StateServing
	if err := r.saveLocked(); err != nil {
		return VersionInfo{}, err
	}
	r.mRollbacks.Inc()
	r.mServing.Set(float64(prev))
	return r.man.Versions[i], nil
}

// ServingVersion returns the serving version of key, if one was promoted.
func (r *Registry) ServingVersion(key string) (VersionInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.man.Serving[key]
	if !ok {
		return VersionInfo{}, false
	}
	if i := r.findLocked(v); i >= 0 {
		return r.man.Versions[i], true
	}
	return VersionInfo{}, false
}

// Serving resolves the serving network of key: (nil, _, false, nil) when
// the lineage has no promoted model (the caller falls back to the base
// offline-trained network). Loaded networks are cached by digest.
func (r *Registry) Serving(key string) (*ann.Network, VersionInfo, bool, error) {
	info, ok := r.ServingVersion(key)
	if !ok {
		return nil, VersionInfo{}, false, nil
	}
	net, err := r.NetworkByDigest(info.Digest)
	if err != nil {
		return nil, info, false, err
	}
	return net, info, true, nil
}

// NetworkByDigest loads (and caches) the stored weights with the given
// content digest.
func (r *Registry) NetworkByDigest(digest string) (*ann.Network, error) {
	if v, ok := r.netCache.Load(digest); ok {
		return v.(*ann.Network), nil
	}
	payload, err := r.st.Get("dbn:" + digest)
	if err != nil {
		return nil, fmt.Errorf("learn: loading model %s: %w", digest[:min(12, len(digest))], err)
	}
	net, err := ann.ReadJSON(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("learn: decoding model %s: %w", digest[:min(12, len(digest))], err)
	}
	actual, _, err := WeightsDigest(net)
	if err == nil && actual != digest {
		return nil, fmt.Errorf("learn: model %s re-serializes to %s (format drift)", digest[:12], actual[:12])
	}
	v, _ := r.netCache.LoadOrStore(digest, net)
	return v.(*ann.Network), nil
}

// Get returns the manifest entry and weights of one version.
func (r *Registry) Get(version int) (VersionInfo, *ann.Network, error) {
	r.mu.RLock()
	i := r.findLocked(version)
	var info VersionInfo
	if i >= 0 {
		info = r.man.Versions[i]
	}
	r.mu.RUnlock()
	if i < 0 {
		return VersionInfo{}, nil, fmt.Errorf("learn: unknown model version %d", version)
	}
	net, err := r.NetworkByDigest(info.Digest)
	if err != nil {
		return info, nil, err
	}
	return info, net, nil
}

// List returns every registered version, oldest first.
func (r *Registry) List() []VersionInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]VersionInfo, len(r.man.Versions))
	copy(out, r.man.Versions)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
