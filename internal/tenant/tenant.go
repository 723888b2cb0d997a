// Package tenant is a compact multi-tenant model store: thousands of
// per-tenant trained detectors resident in a single serving daemon.
//
// It leans on the paper's holographic property the same way snapshots do,
// but pushed to its limit: a trained model is fully determined by its
// Config (whose Seed rematerializes every hypervector basis) plus its
// class memory, so the store keeps only the compact hdface-model/v2 blob
// per version — a few KB each — and materializes the float/binary class
// memory lazily, on first use, behind a per-version mutex gate (a
// resettable sync.Once: eviction clears the slot, the next request
// rebuilds it). Materialized models live in an LRU with a byte budget;
// eviction drops only the decoded form, never the blob, and in-flight
// readers keep the immutable *hdc.Model they already loaded.
//
// Each tenant has an atomic live slot, so promoting a new version (after
// an online-learning round, say) is one pointer store — a swap never
// blocks a scoring request. All mutation serialises per tenant; on disk a
// tenant is a directory of v*.hdfs compact blobs plus a LIVE file,
// written temp+rename like the registry.
package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/obs"
	"hdface/internal/registry"
)

var (
	obsTenants = obs.NewGauge("hdface_tenant_tenants",
		"Number of tenants resident in the store.")
	obsVersions = obs.NewGauge("hdface_tenant_versions",
		"Total model versions resident (compact blobs) across all tenants.")
	obsMaterialized = obs.NewGauge("hdface_tenant_materialized_bytes",
		"Bytes of lazily materialized class memory currently cached.")
	obsMaterializations = obs.NewCounter("hdface_tenant_materializations_total",
		"Cold materializations of a compact blob into a scoring model.")
	obsEvictions = obs.NewCounter("hdface_tenant_evictions_total",
		"Materialized models evicted under the LRU byte budget.")
	obsSwaps = obs.NewCounter("hdface_tenant_swaps_total",
		"Per-tenant live-slot swaps (promotes).")
	obsFeedback = obs.NewCounter("hdface_tenant_feedback_total",
		"Per-tenant feedback samples accepted.")
	obsRounds = obs.NewCounter("hdface_tenant_rounds_total",
		"Per-tenant online-learning rounds (batch trained + promoted).")
)

// Typed errors, so serve can map them to precise HTTP statuses.
var (
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	ErrNoLive        = errors.New("tenant: no live version")
	ErrTooMany       = errors.New("tenant: tenant limit reached")
	ErrBadFeedback   = errors.New("tenant: bad feedback sample")
)

const (
	versionPattern = "v%010d.hdfs"
	liveFile       = "LIVE"
	maxIDLen       = 64
)

// Config shapes a Store.
type Config struct {
	// Dir is the persistence root (one subdirectory per tenant); "" keeps
	// the store purely in-memory.
	Dir string
	// BudgetBytes bounds the total materialized class memory; least
	// recently used models are demoted back to their compact blobs when
	// the budget overflows. <= 0 means the 256 MiB default.
	BudgetBytes int64
	// Retain bounds versions kept per tenant (older non-live versions are
	// deleted). <= 0 means the default of 4.
	Retain int
	// FeedbackBatch is the number of feedback samples that triggers an
	// online-learning round for a tenant. <= 0 means the default of 16.
	FeedbackBatch int
	// Epochs is the number of refinement passes per round. <= 0 means 3.
	Epochs int
	// MaxTenants bounds the tenant count. <= 0 means the default of 65536.
	MaxTenants int
	// TrainOpts shapes the per-round Update passes.
	TrainOpts hdc.TrainOpts
}

func (c Config) withDefaults() Config {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 256 << 20
	}
	if c.Retain <= 0 {
		c.Retain = 4
	}
	if c.FeedbackBatch <= 0 {
		c.FeedbackBatch = 16
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1 << 16
	}
	return c
}

// Store holds every tenant. Reads on the scoring path take only the
// tenants RWMutex read lock plus (on an LRU hit) the short lru lock.
type Store struct {
	cfg Config

	mu      sync.RWMutex // guards tenants map and base config adoption
	tenants map[string]*Tenant
	baseCfg hdface.Config
	haveCfg bool

	nVersions atomic.Int64 // store-wide version count, for the gauge

	lru lruList
}

// Tenant is one isolated model lineage: its own versions, live slot,
// feedback accumulator and counters.
type Tenant struct {
	id    string
	store *Store

	mu       sync.Mutex // versions, nextID, batch, persistence
	versions map[uint64]*Version
	nextID   uint64
	live     atomic.Pointer[Version]

	batchFeats  []*hv.Vector
	batchLabels []int

	requests atomic.Int64
	feedback atomic.Int64
	rounds   atomic.Int64
	swaps    atomic.Int64
}

// Version is one immutable model version: the compact blob is always
// resident; the decoded model appears on first use and may be evicted.
type Version struct {
	TenantID string
	ID       uint64
	Cfg      hdface.Config

	store *Store
	blob  []byte

	// Materialization gate: mat is the published decoded model (nil =
	// not materialized); matMu serialises decoding so concurrent first
	// users decode once. A sync.Once cannot be reset after eviction,
	// hence the mutex + double-checked atomic pointer.
	matMu sync.Mutex
	mat   atomic.Pointer[hdc.Model]

	// LRU bookkeeping, guarded by store.lru.mu.
	lruPrev, lruNext *Version
	inLRU            bool
	matBytes         int64
}

// ValidID reports whether a tenant ID is acceptable: 1-64 chars of
// [A-Za-z0-9._-], not starting with a dot (IDs name directories, so this
// also rules out path traversal and hidden files).
func ValidID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("tenant: id must be 1-%d characters", maxIDLen)
	}
	if id[0] == '.' {
		return errors.New("tenant: id must not start with a dot")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("tenant: id contains invalid character %q", r)
		}
	}
	return nil
}

// Open creates a store, loading every persisted tenant when cfg.Dir is
// set. Only blob headers are decoded at open — config validation and
// compatibility, not class memory — so opening thousands of versions is
// cheap; a corrupt payload surfaces on first materialization instead.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg.withDefaults(), tenants: make(map[string]*Tenant)}
	s.lru.budget = s.cfg.BudgetBytes
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if err := ValidID(id); err != nil {
			return nil, fmt.Errorf("tenant: directory %q: %w", id, err)
		}
		t, err := s.loadTenant(id)
		if err != nil {
			return nil, err
		}
		s.tenants[id] = t
	}
	s.setGauges()
	return s, nil
}

// loadTenant indexes one tenant directory. Like registry.Open, a version
// file that fails header validation or a LIVE entry referencing a missing
// version is a hard error: silently serving around corruption is worse
// than refusing to start.
func (s *Store) loadTenant(id string) (*Tenant, error) {
	dir := filepath.Join(s.cfg.Dir, id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	t := &Tenant{id: id, store: s, versions: make(map[uint64]*Version)}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".hdfs") {
			continue
		}
		vid, err := parseVersionName(name)
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: bad version file %q: %w", id, name, err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
		cfg, hasModel, _, err := hdface.SnapshotInfo(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: version %d: %w", id, vid, err)
		}
		if !hasModel {
			return nil, fmt.Errorf("tenant: %s: version %d holds no trained model", id, vid)
		}
		if err := s.adoptConfig(cfg); err != nil {
			return nil, fmt.Errorf("tenant: %s: version %d: %w", id, vid, err)
		}
		t.versions[vid] = &Version{TenantID: id, ID: vid, Cfg: cfg, store: s, blob: blob}
		if vid > t.nextID {
			t.nextID = vid
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, liveFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	if line := strings.TrimSpace(string(data)); line != "" {
		vid, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: LIVE entry %q: %w", id, line, err)
		}
		v, ok := t.versions[vid]
		if !ok {
			return nil, fmt.Errorf("tenant: %s: LIVE references version %d which is not on disk", id, vid)
		}
		t.live.Store(v)
	}
	return t, nil
}

func parseVersionName(name string) (uint64, error) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".hdfs")
	if len(digits) != 10 {
		return 0, errors.New("want v<10 digits>.hdfs")
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, err
	}
	if id == 0 {
		return 0, errors.New("version 0 is reserved")
	}
	return id, nil
}

// adoptConfig records the first config seen and requires every later one
// to be interchangeable with it (same bases, same feature extraction): the
// whole store shares one pipeline, only class memory differs per tenant.
// Callers may hold s.mu; adoptConfig locks only when they don't.
func (s *Store) adoptConfig(cfg hdface.Config) error {
	if !s.haveCfg {
		s.baseCfg, s.haveCfg = cfg, true
		return nil
	}
	return registry.Compatible(s.baseCfg, cfg)
}

// BaseConfig returns the config shared by every stored version, and
// whether the store holds one yet.
func (s *Store) BaseConfig() (hdface.Config, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseCfg, s.haveCfg
}

// tenant resolves an ID with only the read lock.
func (s *Store) tenant(id string) (*Tenant, error) {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, id)
	}
	return t, nil
}

// getOrCreate resolves or creates a tenant.
func (s *Store) getOrCreate(id string) (*Tenant, error) {
	if err := ValidID(id); err != nil {
		return nil, err
	}
	if t, err := s.tenant(id); err == nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("%w (%d)", ErrTooMany, s.cfg.MaxTenants)
	}
	if s.cfg.Dir != "" {
		if err := os.MkdirAll(filepath.Join(s.cfg.Dir, id), 0o755); err != nil {
			return nil, fmt.Errorf("tenant: %w", err)
		}
	}
	t := &Tenant{id: id, store: s, versions: make(map[uint64]*Version)}
	s.tenants[id] = t
	obsTenants.Set(float64(len(s.tenants)))
	return t, nil
}

// Put stores a new version for a tenant (creating the tenant on first
// use) and returns its ID. The model must be finalized: the compact form
// exists to carry binarized class memory to the serving hot path. Put
// does not change which version is live — call Promote for that.
func (s *Store) Put(tenantID string, cfg hdface.Config, m *hdc.Model) (uint64, error) {
	if m == nil {
		return 0, errors.New("tenant: Put: nil model")
	}
	if m.Bin == nil {
		return 0, errors.New("tenant: Put: model not finalized (no binarized class memory)")
	}
	if m.D != cfg.D {
		return 0, fmt.Errorf("tenant: Put: model D=%d != config D=%d", m.D, cfg.D)
	}
	t, err := s.getOrCreate(tenantID)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	err = s.adoptConfig(cfg)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.putLocked(cfg, m)
}

// putLocked encodes and stores a version; caller holds t.mu.
func (t *Tenant) putLocked(cfg hdface.Config, m *hdc.Model) (uint64, error) {
	var buf bytes.Buffer
	if err := hdface.EncodeSnapshotV2(&buf, cfg, m); err != nil {
		return 0, fmt.Errorf("tenant: encode: %w", err)
	}
	id := t.nextID + 1
	v := &Version{TenantID: t.id, ID: id, Cfg: cfg, store: t.store, blob: buf.Bytes()}
	if t.store.cfg.Dir != "" {
		if err := t.writeAtomic(fmt.Sprintf(versionPattern, id), v.blob); err != nil {
			return 0, err
		}
	}
	t.nextID = id
	t.versions[id] = v
	obsVersions.Set(float64(t.store.nVersions.Add(1)))
	t.gcLocked()
	return id, nil
}

// Promote makes a stored version the tenant's live model. The swap itself
// is one atomic pointer store; scoring requests are never blocked by it
// (they read the live slot lock-free and keep whatever model pointer they
// already hold).
func (s *Store) Promote(tenantID string, id uint64) error {
	t, err := s.tenant(tenantID)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.promoteLocked(id)
}

func (t *Tenant) promoteLocked(id uint64) error {
	v, ok := t.versions[id]
	if !ok {
		return fmt.Errorf("tenant: %s: no version %d", t.id, id)
	}
	if t.store.cfg.Dir != "" {
		if err := t.writeAtomic(liveFile, []byte(strconv.FormatUint(id, 10)+"\n")); err != nil {
			return err
		}
	}
	t.live.Store(v)
	t.swaps.Add(1)
	obsSwaps.Inc()
	return nil
}

// Seed is Put followed by Promote: the way a new tenant is born from a
// base model (typically the registry's live version).
func (s *Store) Seed(tenantID string, cfg hdface.Config, m *hdc.Model) (uint64, error) {
	id, err := s.Put(tenantID, cfg, m)
	if err != nil {
		return 0, err
	}
	return id, s.Promote(tenantID, id)
}

// Live returns the tenant's live version without materializing it.
func (s *Store) Live(tenantID string) (*Version, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	v := t.live.Load()
	if v == nil {
		return nil, fmt.Errorf("%w for tenant %q", ErrNoLive, tenantID)
	}
	return v, nil
}

// Model resolves the tenant's live version and materializes it, counting
// one scoring request against the tenant.
func (s *Store) Model(tenantID string) (*Version, *hdc.Model, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return nil, nil, err
	}
	v := t.live.Load()
	if v == nil {
		return nil, nil, fmt.Errorf("%w for tenant %q", ErrNoLive, tenantID)
	}
	m, err := v.Model()
	if err != nil {
		return nil, nil, err
	}
	t.requests.Add(1)
	return v, m, nil
}

// Model returns the decoded model, materializing it on first use. The
// fast path is one atomic load plus an LRU touch; the slow path decodes
// the compact blob once per (version, eviction) under the per-version
// gate, so a thundering herd of first users performs a single decode.
func (v *Version) Model() (*hdc.Model, error) {
	if m := v.mat.Load(); m != nil {
		v.store.lru.touch(v)
		return m, nil
	}
	v.matMu.Lock()
	defer v.matMu.Unlock()
	if m := v.mat.Load(); m != nil {
		v.store.lru.touch(v)
		return m, nil
	}
	_, m, err := hdface.DecodeSnapshotV2(bytes.NewReader(v.blob))
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: version %d: %w", v.TenantID, v.ID, err)
	}
	if m == nil {
		return nil, fmt.Errorf("tenant: %s: version %d holds no trained model", v.TenantID, v.ID)
	}
	v.matBytes = materializedBytes(m)
	v.mat.Store(m)
	v.store.lru.insert(v)
	obsMaterializations.Inc()
	return m, nil
}

// Materialized reports whether the decoded model is currently cached.
func (v *Version) Materialized() bool { return v.mat.Load() != nil }

// materializedBytes estimates the decoded footprint: float accumulators,
// binarized words, slice headers.
func materializedBytes(m *hdc.Model) int64 {
	words := int64((m.D + 63) / 64)
	b := int64(m.K) * int64(m.D) * 8 // Classes
	if m.Bin != nil {
		b += int64(m.K) * words * 8
	}
	return b + 512
}

// Feedback records one labelled sample for a tenant. Once the tenant's
// batch fills, a round runs synchronously: clone the live model, refine it
// over the batch, finalize, store and promote the result. The returned ID
// is non-zero when a new version went live.
func (s *Store) Feedback(tenantID string, f *hv.Vector, label int) (uint64, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.live.Load()
	if live == nil {
		return 0, fmt.Errorf("%w for tenant %q", ErrNoLive, tenantID)
	}
	m, err := live.Model()
	if err != nil {
		return 0, err
	}
	if f == nil || f.D() != m.D {
		return 0, fmt.Errorf("%w: feature dimensionality mismatch", ErrBadFeedback)
	}
	if label < 0 || label >= m.K {
		return 0, fmt.Errorf("%w: label %d outside [0, %d)", ErrBadFeedback, label, m.K)
	}
	t.batchFeats = append(t.batchFeats, f)
	t.batchLabels = append(t.batchLabels, label)
	t.feedback.Add(1)
	obsFeedback.Inc()
	if len(t.batchFeats) < s.cfg.FeedbackBatch {
		return 0, nil
	}
	cand := m.Clone()
	for e := 0; e < s.cfg.Epochs; e++ {
		mistakes, err := cand.Update(t.batchFeats, t.batchLabels, s.cfg.TrainOpts)
		if err != nil {
			return 0, fmt.Errorf("tenant: %s: round: %w", tenantID, err)
		}
		if mistakes == 0 {
			break
		}
	}
	// Same finalize salt as Pipeline.Fit and the online trainer, so a
	// tenant's binarization is reproducible from its config alone.
	cand.Finalize(live.Cfg.Seed ^ 0xf1a1)
	t.batchFeats = t.batchFeats[:0]
	t.batchLabels = t.batchLabels[:0]
	id, err := t.putLocked(live.Cfg, cand)
	if err != nil {
		return 0, err
	}
	if err := t.promoteLocked(id); err != nil {
		return 0, err
	}
	t.rounds.Add(1)
	obsRounds.Inc()
	return id, nil
}

// gcLocked enforces the per-tenant retention bound: delete the oldest
// versions that are neither live nor newest. Caller holds t.mu.
func (t *Tenant) gcLocked() {
	retain := t.store.cfg.Retain
	if retain <= 0 || len(t.versions) <= retain {
		return
	}
	liveID := uint64(0)
	if v := t.live.Load(); v != nil {
		liveID = v.ID
	}
	ids := make([]uint64, 0, len(t.versions))
	for id := range t.versions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if len(t.versions) <= retain {
			break
		}
		if id == liveID || id == t.nextID {
			continue
		}
		v := t.versions[id]
		delete(t.versions, id)
		t.store.lru.remove(v)
		obsVersions.Set(float64(t.store.nVersions.Add(-1)))
		if t.store.cfg.Dir != "" {
			os.Remove(filepath.Join(t.store.cfg.Dir, t.id, fmt.Sprintf(versionPattern, id)))
		}
	}
}

// writeAtomic persists one file under the tenant dir via temp + rename.
func (t *Tenant) writeAtomic(name string, data []byte) error {
	dir := filepath.Join(t.store.cfg.Dir, t.id)
	tmp, err := os.CreateTemp(dir, ".tenant-*")
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("tenant: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	return nil
}

// Info describes one tenant for listings and per-tenant counters.
type Info struct {
	ID           string `json:"id"`
	Versions     int    `json:"versions"`
	LiveVersion  uint64 `json:"live_version"`
	Materialized bool   `json:"materialized"`
	BlobBytes    int64  `json:"blob_bytes"`
	Requests     int64  `json:"requests"`
	Feedback     int64  `json:"feedback"`
	Rounds       int64  `json:"rounds"`
	Swaps        int64  `json:"swaps"`
}

// Tenants lists every tenant in ID order.
func (s *Store) Tenants() []Info {
	s.mu.RLock()
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		t.mu.Lock()
		info := Info{
			ID:       t.id,
			Versions: len(t.versions),
			Requests: t.requests.Load(),
			Feedback: t.feedback.Load(),
			Rounds:   t.rounds.Load(),
			Swaps:    t.swaps.Load(),
		}
		for _, v := range t.versions {
			info.BlobBytes += int64(len(v.blob))
		}
		if v := t.live.Load(); v != nil {
			info.LiveVersion = v.ID
			info.Materialized = v.Materialized()
		}
		t.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// Stats summarises the store.
type Stats struct {
	Tenants           int   `json:"tenants"`
	Versions          int   `json:"versions"`
	BlobBytes         int64 `json:"blob_bytes"`
	MaterializedCount int   `json:"materialized"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	BudgetBytes       int64 `json:"budget_bytes"`
	Evictions         int64 `json:"evictions"`
}

// Stats returns store-wide totals.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{Tenants: len(s.tenants), BudgetBytes: s.cfg.BudgetBytes}
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	for _, t := range ts {
		t.mu.Lock()
		st.Versions += len(t.versions)
		for _, v := range t.versions {
			st.BlobBytes += int64(len(v.blob))
		}
		t.mu.Unlock()
	}
	st.MaterializedCount, st.MaterializedBytes = s.lru.stats()
	st.Evictions = s.lru.evictions.Load()
	return st
}

// Len returns the tenant count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}

// setGauges refreshes the store-wide gauges from the not-yet-shared store
// (Open only — once concurrent, the gauges track mutations incrementally).
func (s *Store) setGauges() {
	total := int64(0)
	for _, t := range s.tenants {
		total += int64(len(t.versions))
	}
	s.nVersions.Store(total)
	obsTenants.Set(float64(len(s.tenants)))
	obsVersions.Set(float64(total))
}
