// Delta accumulation and merging: the distributed half of online learning.
//
// HDC class memory is an additive sum of bundled features, so feedback
// evidence gathered on different replicas merges by plain element-wise
// addition — bundling — with no coordination. Each replica keeps a Delta:
// an integer class-memory accumulator of the mistake-driven ±1 feature
// contributions it has absorbed since it last adopted a model, plus
// per-class sample counts. A router periodically pulls every replica's
// delta, merges them with a Merger, folds the merged evidence into the
// base model (ApplyDelta) and pushes the candidate back through each
// replica's promote gate.
//
// The merge is a state-based CRDT. Each delta is a cumulative snapshot
// ordered by the replica-local pair (Epoch, Seq) — Epoch bumps every time
// the accumulator rebases onto a newly adopted model, Seq counts samples
// absorbed within the epoch — so the Merger keeps only the newest state
// per replica. Duplicate delivery is a no-op (same (Epoch, Seq)),
// out-of-order arrival is a no-op (older pairs lose), replica loss just
// means a replica's last-seen state keeps contributing, and the
// cross-replica combine is element-wise integer addition, which is
// commutative and associative. Evidence epochs are keyed on Base, a
// content fingerprint of the model the evidence was accumulated against
// (hdc.Model.Fingerprint), never on registry version IDs: IDs are
// replica-local and drift apart after a partition, fingerprints cannot.
package online

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"hdface/internal/hdc"
	"hdface/internal/hv"
)

// deltaMagic prefixes the wire form so a decoder can reject junk before
// allocating anything.
var deltaMagic = [4]byte{'H', 'D', 'D', '1'}

// Wire-form plausibility bounds, mirroring hdc.Load's hostile-input
// posture: geometry beyond these is corruption or an attack, not a model.
const (
	maxDeltaD       = 1 << 24
	maxDeltaK       = 1 << 20
	maxDeltaCells   = 1 << 24 // bounds K*D, so a hostile header cannot drive a 100 GiB allocation
	maxDeltaReplica = 256
)

// Delta is one replica's cumulative feedback evidence: for every class, an
// integer accumulator holding the bundling sum of the ±1 bits of the
// features the replica mis-predicted (added at the true label, subtracted
// at the predicted one — the paper's mistake-driven update with unit
// weight), plus per-class sample counts. Deltas merge by addition.
type Delta struct {
	// Replica identifies the accumulating replica; the Merger keys its
	// per-replica latest-state map on it.
	Replica string
	// Base is the fingerprint of the model the evidence was accumulated
	// against (hdc.Model.Fingerprint). Only deltas sharing a base may be
	// folded into that base model — evidence against another model might
	// double-count samples its training already absorbed.
	Base uint64
	// Epoch is a replica-local rebase counter: it increments every time
	// the accumulator resets onto a newly adopted model and never goes
	// backwards, so (Epoch, Seq) totally orders one replica's states.
	Epoch uint64
	// Seq counts samples absorbed within the current epoch.
	Seq uint64
	// D and K are the model geometry the accumulator is shaped for.
	D, K int
	// Counts is the per-class number of absorbed samples.
	Counts []int64
	// Acc is the K x D integer class-memory accumulator.
	Acc [][]int32
}

// NewDelta returns an empty accumulator for a d-dimensional k-class model.
func NewDelta(replica string, base uint64, epoch uint64, d, k int) *Delta {
	dl := &Delta{Replica: replica, Base: base, Epoch: epoch, D: d, K: k,
		Counts: make([]int64, k), Acc: make([][]int32, k)}
	for c := range dl.Acc {
		dl.Acc[c] = make([]int32, d)
	}
	return dl
}

// Add absorbs one mis-predicted feedback sample: the feature's ±1 bits are
// added into the true class's accumulator and subtracted from the
// (wrongly) predicted class's — exactly the model's mistake-driven double
// update at integer weight 1, which keeps per-replica sums mergeable by
// addition. Correctly predicted samples carry no evidence and must not be
// offered (the caller's redundancy filter, like the bootstrap margin
// skip).
func (dl *Delta) Add(f *hv.Vector, label, pred int) {
	if f.D() != dl.D {
		panic(fmt.Sprintf("online: delta feature dimension %d, accumulator %d", f.D(), dl.D))
	}
	if label < 0 || label >= dl.K || pred < 0 || pred >= dl.K {
		panic(fmt.Sprintf("online: delta labels (%d, %d) outside [0, %d)", label, pred, dl.K))
	}
	words := f.Words()
	la, pa := dl.Acc[label], dl.Acc[pred]
	for i := 0; i < dl.D; i++ {
		s := int32(-1)
		if words[i/64]>>(uint(i)%64)&1 == 1 {
			s = 1
		}
		la[i] += s
		if pred != label {
			pa[i] -= s
		}
	}
	dl.Counts[label]++
	dl.Seq++
}

// Samples returns the total absorbed sample count.
func (dl *Delta) Samples() int64 {
	var n int64
	for _, c := range dl.Counts {
		n += c
	}
	return n
}

// Clone deep-copies the delta.
func (dl *Delta) Clone() *Delta {
	c := &Delta{Replica: dl.Replica, Base: dl.Base, Epoch: dl.Epoch, Seq: dl.Seq,
		D: dl.D, K: dl.K, Counts: append([]int64(nil), dl.Counts...), Acc: make([][]int32, dl.K)}
	for i, row := range dl.Acc {
		c.Acc[i] = append([]int32(nil), row...)
	}
	return c
}

// merge adds o's evidence into dl (the bundling combine). Geometry must
// match; identity metadata (replica, epoch, seq) is the caller's business.
func (dl *Delta) merge(o *Delta) error {
	if o.D != dl.D || o.K != dl.K {
		return fmt.Errorf("online: merge geometry mismatch: %dx%d vs %dx%d", o.K, o.D, dl.K, dl.D)
	}
	for c := range dl.Acc {
		dl.Counts[c] += o.Counts[c]
		row, orow := dl.Acc[c], o.Acc[c]
		for i := range row {
			row[i] += orow[i]
		}
	}
	return nil
}

// Encode writes the delta in its binary wire form (magic, fixed header,
// little-endian counts and accumulator rows).
func (dl *Delta) Encode(w io.Writer) error {
	if dl.D <= 0 || dl.D > maxDeltaD || dl.K < 2 || dl.K > maxDeltaK {
		return fmt.Errorf("online: implausible delta geometry d=%d k=%d", dl.D, dl.K)
	}
	if len(dl.Replica) == 0 || len(dl.Replica) > maxDeltaReplica {
		return fmt.Errorf("online: delta replica name length %d outside [1, %d]", len(dl.Replica), maxDeltaReplica)
	}
	if _, err := w.Write(deltaMagic[:]); err != nil {
		return err
	}
	hdr := struct {
		Base, Epoch, Seq uint64
		D, K, RepLen     uint32
	}{dl.Base, dl.Epoch, dl.Seq, uint32(dl.D), uint32(dl.K), uint32(len(dl.Replica))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if _, err := io.WriteString(w, dl.Replica); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, dl.Counts); err != nil {
		return err
	}
	for _, row := range dl.Acc {
		if err := binary.Write(w, binary.LittleEndian, row); err != nil {
			return err
		}
	}
	return nil
}

// DecodeDelta reads a delta written by Encode, bound-checking the declared
// geometry before allocating anything sized from it.
func DecodeDelta(r io.Reader) (*Delta, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("online: delta header: %w", err)
	}
	if magic != deltaMagic {
		return nil, fmt.Errorf("online: bad delta magic")
	}
	var hdr struct {
		Base, Epoch, Seq uint64
		D, K, RepLen     uint32
	}
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("online: delta header: %w", err)
	}
	d, k := int(hdr.D), int(hdr.K)
	if d <= 0 || d > maxDeltaD || k < 2 || k > maxDeltaK || d*k > maxDeltaCells {
		return nil, fmt.Errorf("online: implausible delta geometry d=%d k=%d", d, k)
	}
	if hdr.RepLen == 0 || hdr.RepLen > maxDeltaReplica {
		return nil, fmt.Errorf("online: implausible delta replica name length %d", hdr.RepLen)
	}
	rep := make([]byte, hdr.RepLen)
	if _, err := io.ReadFull(r, rep); err != nil {
		return nil, fmt.Errorf("online: delta replica: %w", err)
	}
	dl := NewDelta(string(rep), hdr.Base, hdr.Epoch, d, k)
	dl.Seq = hdr.Seq
	if err := binary.Read(r, binary.LittleEndian, dl.Counts); err != nil {
		return nil, fmt.Errorf("online: delta counts: %w", err)
	}
	for c := range dl.Acc {
		if err := binary.Read(r, binary.LittleEndian, dl.Acc[c]); err != nil {
			return nil, fmt.Errorf("online: delta class %d: %w", c, err)
		}
	}
	return dl, nil
}

// Merger is the router-side convergence point: it remembers the newest
// delta state per replica and bundles them on demand. Offer is idempotent
// and order-insensitive (see the package comment for the CRDT argument),
// so a merger fed by a lossy, duplicating, reordering feedback plane
// reaches the same merged state as one fed perfectly.
type Merger struct {
	mu     sync.Mutex
	latest map[string]*Delta
	// offered/stale record ingestion behaviour for introspection.
	offered, stale int64
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{latest: make(map[string]*Delta)}
}

// Offer ingests one delta snapshot, keeping it only if it is newer than
// the stored state for its replica — (Epoch, Seq) lexicographic order.
// Returns whether the offer advanced anything: duplicates and stale
// re-deliveries return false and change nothing.
func (m *Merger) Offer(d *Delta) bool {
	if d == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.offered++
	cur, ok := m.latest[d.Replica]
	if ok && (cur.Epoch > d.Epoch || (cur.Epoch == d.Epoch && cur.Seq >= d.Seq)) {
		m.stale++
		return false
	}
	m.latest[d.Replica] = d.Clone()
	return true
}

// Bundle merges the newest per-replica deltas accumulated against base
// into one combined delta (bundling = element-wise addition; the order of
// the loop is irrelevant by commutativity). Deltas against other bases are
// excluded — their evidence may already be inside a model their replica
// adopted — and reported as skipped. Returns nil when no evidence matches.
func (m *Merger) Bundle(base uint64) (merged *Delta, skipped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.latest {
		if d.Base != base || d.Samples() == 0 {
			if d.Base != base {
				skipped++
			}
			continue
		}
		if merged == nil {
			merged = NewDelta("merged", base, 0, d.D, d.K)
		}
		if err := merged.merge(d); err != nil {
			// Geometry mismatches cannot happen between replicas of one
			// fleet (the registry config gate rejects them at Put); treat
			// the offending delta as skippable rather than poisoning the
			// merge.
			skipped++
		}
	}
	return merged, skipped
}

// Stats returns (offers ingested, offers discarded as stale/duplicate).
func (m *Merger) Stats() (offered, stale int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.offered, m.stale
}

// ApplyDelta folds merged evidence into a base model: candidate class
// memory = base class memory + lr * accumulator — one more bundling,
// which is exactly how the model was built in the first place. The
// candidate is finalised (binarised) with seed and the base is left
// untouched. The delta's Base fingerprint must match the model.
func ApplyDelta(base *hdc.Model, d *Delta, lr float64, seed uint64) (*hdc.Model, error) {
	if d.D != base.D || d.K != base.K {
		return nil, fmt.Errorf("online: delta geometry %dx%d does not match model %dx%d", d.K, d.D, base.K, base.D)
	}
	if fp := base.Fingerprint(); fp != d.Base {
		return nil, fmt.Errorf("online: delta base %016x does not match model fingerprint %016x", d.Base, fp)
	}
	if lr == 0 {
		lr = 1
	}
	cand := base.Clone()
	for c := range cand.Classes {
		acc, row := cand.Classes[c], d.Acc[c]
		for i := range acc {
			acc[i] += lr * float64(row[i])
		}
	}
	cand.Finalize(seed)
	return cand, nil
}
