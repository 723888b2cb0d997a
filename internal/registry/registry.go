// Package registry is a versioned store for trained hdface models built on
// the hdface-model/v1 snapshot format. Versions carry only the trained
// class memory (the hypervector bases are rematerialised from Config.Seed
// by whoever serves them), so storing, promoting and rolling back models
// is nearly free: a version file for a D=4096 binary classifier is a few
// tens of kilobytes.
//
// The live version sits behind an atomic.Pointer: readers on the serving
// hot path call Live with no locks and can never observe a half-swapped
// model — a promote or rollback publishes a fully constructed *Version in
// one pointer store. All mutation (Put/Promote/Rollback) serialises on a
// mutex; persistence uses same-directory temp files plus rename so a crash
// mid-write never leaves a torn version where a daemon expects one.
package registry

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
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
)

// versionPattern names version files inside a registry dir. The zero
// padding keeps lexical and numeric order identical, which makes the dir
// listing human-auditable.
const versionPattern = "v%010d.hdfs"

// liveFile records the promote history, one ASCII version ID per line,
// last line = currently live. Keeping the history (not just the head)
// on disk is what lets Rollback survive a daemon restart.
const liveFile = "LIVE"

// maxHistory bounds the promote history; older entries fall off the front.
// Sixteen levels of rollback is far beyond any operational need.
const maxHistory = 16

var (
	obsLiveVersion = obs.NewGauge("hdface_registry_live_version",
		"Currently live model version ID (0 = none).")
	obsVersions = obs.NewGauge("hdface_registry_versions",
		"Number of model versions currently retained.")
	obsPromotes = obs.NewCounter("hdface_registry_promotes_total",
		"Model promotions (including rollback re-promotions).")
	obsRollbacks = obs.NewCounter("hdface_registry_rollbacks_total",
		"Model rollbacks.")
	obsGCDeleted = obs.NewCounter("hdface_registry_gc_deleted_total",
		"Model versions deleted by retention GC.")
)

// Version is one immutable trained model. The Model must not be mutated
// after Put: the serving hot path reads it concurrently with no locks.
type Version struct {
	// ID is the monotonically increasing version number, unique within
	// one registry for its whole lifetime (IDs of deleted versions are
	// never reused).
	ID uint64
	// Model is the trained classifier for this version.
	Model *hdc.Model
}

// Info describes one stored version for listings.
type Info struct {
	ID   uint64 `json:"id"`
	Live bool   `json:"live"`
}

// Registry stores versions, tracks the promote history and publishes the
// live version through an atomic pointer.
type Registry struct {
	mu       sync.Mutex
	dir      string // "" = in-memory only
	retain   int    // max versions kept; <=0 = unlimited
	cfg      hdface.Config
	haveCfg  bool
	versions map[uint64]*Version
	history  []uint64 // promote order; last = live
	nextID   uint64
	live     atomic.Pointer[Version]
}

// Open creates a registry. With dir == "" it is purely in-memory. With a
// directory it loads every v*.hdfs version file and the LIVE history; any
// version file that fails to parse is a hard error — a corrupt registry
// must be repaired by an operator, never silently served around. retain
// bounds how many versions are kept on disk (<= 0 keeps all).
func Open(dir string, retain int) (*Registry, error) {
	r := &Registry{
		dir:      dir,
		retain:   retain,
		versions: make(map[uint64]*Version),
	}
	if dir == "" {
		r.publish()
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".hdfs") {
			continue
		}
		id, err := parseVersionName(name)
		if err != nil {
			return nil, fmt.Errorf("registry: bad version file %q: %w", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		cfg, m, err := hdface.DecodeSnapshotAuto(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("registry: version %d: %w", id, err)
		}
		if m == nil {
			return nil, fmt.Errorf("registry: version %d: snapshot holds no trained model", id)
		}
		if !r.haveCfg {
			r.cfg, r.haveCfg = cfg, true
		} else if err := Compatible(r.cfg, cfg); err != nil {
			return nil, fmt.Errorf("registry: version %d: %w", id, err)
		}
		r.versions[id] = &Version{ID: id, Model: m}
		if id > r.nextID {
			r.nextID = id
		}
	}
	if err := r.loadHistory(); err != nil {
		return nil, err
	}
	r.publish()
	return r, nil
}

func parseVersionName(name string) (uint64, error) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".hdfs")
	if len(digits) != 10 {
		return 0, fmt.Errorf("want v<10 digits>.hdfs")
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, err
	}
	if id == 0 {
		return 0, fmt.Errorf("version 0 is reserved")
	}
	return id, nil
}

// loadHistory reads the LIVE promote history. A history line referencing a
// version that is not on disk (a "version gap", e.g. a deleted or torn
// version file) is a hard error: silently serving some other version would
// be worse than refusing to start.
func (r *Registry) loadHistory() error {
	data, err := os.ReadFile(filepath.Join(r.dir, liveFile))
	if os.IsNotExist(err) {
		return nil // valid: nothing promoted yet
	}
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return fmt.Errorf("registry: LIVE entry %q: %w", line, err)
		}
		if _, ok := r.versions[id]; !ok {
			return fmt.Errorf("registry: LIVE references version %d which is not in the registry", id)
		}
		r.history = append(r.history, id)
	}
	return nil
}

// Config returns the config shared by every stored version, and whether
// the registry holds one yet (it adopts the config of the first Put, or
// of the on-disk versions at Open).
func (r *Registry) Config() (hdface.Config, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg, r.haveCfg
}

// Compatible reports whether two configs produce interchangeable models:
// everything that shapes feature extraction must match. Workers is purely
// a throughput knob and Train only shapes how a model was fitted, so both
// are ignored.
func Compatible(a, b hdface.Config) error {
	a.Workers, b.Workers = 0, 0
	a.Train, b.Train = hdc.TrainOpts{}, hdc.TrainOpts{}
	if a != b {
		return fmt.Errorf("registry: config mismatch: %+v vs %+v", a, b)
	}
	return nil
}

// Put stores a new version and returns its ID. The registry takes
// ownership of the model: it must not be mutated afterwards. Put does not
// change which version is live — call Promote for that.
func (r *Registry) Put(cfg hdface.Config, m *hdc.Model) (uint64, error) {
	if m == nil {
		return 0, fmt.Errorf("registry: Put: nil model")
	}
	if m.D != cfg.D {
		return 0, fmt.Errorf("registry: Put: model D=%d != config D=%d", m.D, cfg.D)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.haveCfg {
		r.cfg, r.haveCfg = cfg, true
	} else if err := Compatible(r.cfg, cfg); err != nil {
		return 0, err
	}
	id := r.nextID + 1
	v := &Version{ID: id, Model: m}
	if r.dir != "" {
		if err := r.writeVersion(id, cfg, m); err != nil {
			return 0, err
		}
	}
	r.nextID = id
	r.versions[id] = v
	r.gcLocked()
	obsVersions.Set(float64(len(r.versions)))
	return id, nil
}

// ErrUnknownVersion reports a version ID the registry never allocated.
var ErrUnknownVersion = errors.New("registry: unknown version")

// GoneError reports a version that once existed but has since been deleted
// by retention GC — the race a caller hits when it holds an ID across a Put
// burst. It is distinguishable from ErrUnknownVersion so callers can tell
// "retry with a fresher ID" from "this ID is garbage".
type GoneError struct{ ID uint64 }

func (e *GoneError) Error() string {
	return fmt.Sprintf("registry: version %d was deleted by retention GC", e.ID)
}

// lookupLocked resolves an ID to a version or a typed error: *GoneError for
// an allocated-then-GC'd ID, ErrUnknownVersion otherwise. Caller holds mu.
func (r *Registry) lookupLocked(id uint64) (*Version, error) {
	if v, ok := r.versions[id]; ok {
		return v, nil
	}
	if id >= 1 && id <= r.nextID {
		return nil, &GoneError{ID: id}
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, id)
}

// Get returns a stored version. A nil error guarantees a non-nil version;
// otherwise the error is *GoneError when the ID was valid but the version
// lost the race against retention GC, or wraps ErrUnknownVersion when the
// ID was never allocated.
func (r *Registry) Get(id uint64) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(id)
}

// Promote makes version id live. The swap is atomic: in-flight readers
// keep the version they already loaded, new readers see the promoted one.
// Promoting a GC'd version reports *GoneError, like Get.
func (r *Registry) Promote(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.lookupLocked(id); err != nil {
		return fmt.Errorf("registry: Promote: %w", err)
	}
	var from uint64
	if cur := r.live.Load(); cur != nil {
		if cur.ID == id {
			return nil // already live; keep history clean
		}
		from = cur.ID
	}
	r.history = append(r.history, id)
	if len(r.history) > maxHistory {
		r.history = append(r.history[:0], r.history[len(r.history)-maxHistory:]...)
	}
	if r.dir != "" {
		if err := r.writeHistory(); err != nil {
			r.history = r.history[:len(r.history)-1]
			return err
		}
	}
	r.publish()
	r.gcLocked()
	obsPromotes.Inc()
	swapTrace("promote", from, id)
	return nil
}

// swapTrace records a live-slot swap as a short trace so /debug/traces
// shows when the serving model changed — the event that explains a
// score discontinuity mid-trajectory. No-op while tracing is disabled.
func swapTrace(op string, from, to uint64) {
	tr := trace.New("registry_swap", "")
	if tr == nil {
		return
	}
	tr.SetAttr("op", op)
	tr.SetAttr("from_version", strconv.FormatUint(from, 10))
	tr.SetAttr("to_version", strconv.FormatUint(to, 10))
	tr.Finish()
}

// Rollback pops the promote history, making the previously live version
// live again. It returns the version that is live after the rollback.
func (r *Registry) Rollback() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return 0, fmt.Errorf("registry: Rollback: no previous version to roll back to")
	}
	popped := r.history[len(r.history)-1]
	r.history = r.history[:len(r.history)-1]
	if r.dir != "" {
		if err := r.writeHistory(); err != nil {
			r.history = append(r.history, popped)
			return 0, err
		}
	}
	r.publish()
	obsRollbacks.Inc()
	swapTrace("rollback", popped, r.history[len(r.history)-1])
	return r.history[len(r.history)-1], nil
}

// Live returns the current live version, or nil if nothing has been
// promoted. It is lock-free and safe from any goroutine; the returned
// version is immutable.
func (r *Registry) Live() *Version {
	return r.live.Load()
}

// List returns stored versions in ascending ID order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	liveID := uint64(0)
	if v := r.live.Load(); v != nil {
		liveID = v.ID
	}
	out := make([]Info, 0, len(r.versions))
	for id := range r.versions {
		out = append(out, Info{ID: id, Live: id == liveID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// publish rebuilds the live pointer from the history tail. Caller holds mu
// (or is the not-yet-shared constructor).
func (r *Registry) publish() {
	if len(r.history) == 0 {
		r.live.Store(nil)
		obsLiveVersion.Set(0)
		return
	}
	id := r.history[len(r.history)-1]
	r.live.Store(r.versions[id])
	obsLiveVersion.Set(float64(id))
}

// gcLocked enforces the retention bound: delete the oldest versions that
// are neither live nor in the (retention-trimmed) rollback history until
// at most retain remain. Caller holds mu.
func (r *Registry) gcLocked() {
	if r.retain <= 0 || len(r.versions) <= r.retain {
		return
	}
	// The rollback history itself is capped by the retention bound — an
	// unbounded history would protect every version ever promoted from
	// eviction. The trimmed LIVE file is written before any version file
	// is deleted, so a crash in between never leaves a dangling history
	// entry (which Open treats as a hard error).
	if keep := r.retain; len(r.history) > keep {
		r.history = append(r.history[:0], r.history[len(r.history)-keep:]...)
		if r.dir != "" {
			if err := r.writeHistory(); err != nil {
				return // skip GC rather than risk a version gap
			}
		}
	}
	protected := make(map[uint64]bool, len(r.history)+1)
	for _, id := range r.history {
		protected[id] = true
	}
	// The newest version is always kept: a Put immediately followed by
	// Promote must never find its candidate GC'd in between.
	protected[r.nextID] = true
	ids := make([]uint64, 0, len(r.versions))
	for id := range r.versions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if len(r.versions) <= r.retain {
			break
		}
		if protected[id] {
			continue
		}
		delete(r.versions, id)
		if r.dir != "" {
			// Best-effort: a leftover file is re-deleted on a later GC
			// pass or flagged at the next Open.
			os.Remove(filepath.Join(r.dir, fmt.Sprintf(versionPattern, id)))
		}
		obsGCDeleted.Inc()
	}
	obsVersions.Set(float64(len(r.versions)))
}

// writeVersion persists one version atomically (temp + rename).
func (r *Registry) writeVersion(id uint64, cfg hdface.Config, m *hdc.Model) error {
	var buf bytes.Buffer
	if err := hdface.EncodeSnapshot(&buf, cfg, m); err != nil {
		return fmt.Errorf("registry: encode version %d: %w", id, err)
	}
	return r.writeAtomic(fmt.Sprintf(versionPattern, id), buf.Bytes())
}

// MigrateV2 rewrites every hdface-model/v1 version file under dir in the
// compact v2 format, atomically (temp + rename) and in place, returning how
// many files were migrated and how many were already compact. It must not
// race an open registry on the same dir — run it offline or before Open.
// Models are re-encoded exactly as stored: binarised memory bit-for-bit,
// float accumulators quantised to int16 steps.
func MigrateV2(dir string) (migrated, skipped int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".hdfs") {
			continue
		}
		if _, err := parseVersionName(name); err != nil {
			return migrated, skipped, fmt.Errorf("registry: bad version file %q: %w", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return migrated, skipped, fmt.Errorf("registry: %w", err)
		}
		if _, _, compact, err := hdface.SnapshotInfo(bytes.NewReader(data)); err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		} else if compact {
			skipped++
			continue
		}
		cfg, m, err := hdface.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := hdface.EncodeSnapshotV2(&buf, cfg, m); err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		}
		w := &Registry{dir: dir}
		if err := w.writeAtomic(name, buf.Bytes()); err != nil {
			return migrated, skipped, err
		}
		migrated++
	}
	return migrated, skipped, nil
}

// writeHistory persists the LIVE promote history atomically.
func (r *Registry) writeHistory() error {
	var buf bytes.Buffer
	for _, id := range r.history {
		fmt.Fprintf(&buf, "%d\n", id)
	}
	return r.writeAtomic(liveFile, buf.Bytes())
}

func (r *Registry) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(r.dir, ".registry-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(r.dir, name)); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}
