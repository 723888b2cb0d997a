// Pipeline snapshots: a small, versioned wire format that makes a trained
// pipeline portable. Only two things go on the wire — the effective Config
// and the trained classifier — because every hypervector basis the
// front-ends use (codec one/minusOne pair, pixel level tables, positional
// IDs) is derived deterministically from Config.Seed: New(cfg) on the
// loading side rematerialises them bit for bit instead of shipping
// megabytes of redundant randomness. Combined with content-derived
// per-image reseeding (see Feature), a loaded snapshot reproduces the
// saving pipeline's Predict/Scores/DetectScorer outputs exactly.
package hdface

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hdface/internal/hdc"
)

// snapshotMagic versions the container; the classifier payload carries its
// own magic (see hdc.Model.Save), so both layers can evolve independently.
const snapshotMagic = "hdface-model/v1\n"

// snapshotMagicV2 marks the compact container: same config header as v1, but
// the classifier payload is the quantised+binarised hdc compact form
// ("HDC2") instead of the gob float form. Both magics are 16 bytes, so a
// reader can sniff the version from a fixed-size prefix. v2 is the
// multi-tenant store's native format — a trained D=2048 model is ~8.5 KB.
const snapshotMagicV2 = "hdface-model/v2\n"

// maxSnapshotConfigBytes bounds the gob-encoded Config blob. The real
// encoding is well under a kilobyte; anything larger is hostile.
const maxSnapshotConfigBytes = 1 << 16

// snapshotD mirrors the classifier wire bound (hdc: maxWireD) so the config
// is rejected before any allocation is sized from it.
const snapshotD = 1 << 24

// SaveSnapshot writes the pipeline to w in the hdface-model/v1 format:
// magic, a length-prefixed gob of the effective Config, a model-presence
// flag, and (if trained) the classifier in its own checked wire format.
// Pipelines may be snapshotted before Fit; loading yields an untrained
// pipeline.
func (p *Pipeline) SaveSnapshot(w io.Writer) error {
	return EncodeSnapshot(w, p.cfg, p.model)
}

// EncodeSnapshot writes an hdface-model/v1 blob for an arbitrary
// (config, model) pair without requiring a live Pipeline — the registry
// persists versions this way, since only the trained class memory differs
// between versions of the same config. model may be nil (untrained).
func EncodeSnapshot(w io.Writer, cfg Config, model *hdc.Model) error {
	return encodeSnapshot(w, cfg, model, false)
}

// EncodeSnapshotV2 writes the compact hdface-model/v2 form: identical config
// header, quantised+binarised class memory. The binarised memory round-trips
// bit-exactly (so Hamming/fused scoring is byte-identical to the v1 float
// path); the float accumulators round-trip within one int16 quantisation
// step. model may be nil (untrained).
func EncodeSnapshotV2(w io.Writer, cfg Config, model *hdc.Model) error {
	return encodeSnapshot(w, cfg, model, true)
}

// encodeSnapshot refuses, before writing its first byte, any config the
// decoder would refuse, so no caller can save a snapshot nothing can load.
func encodeSnapshot(w io.Writer, cfg Config, model *hdc.Model, compact bool) error {
	if err := validateSnapshotConfig(cfg); err != nil {
		return err
	}
	magic := snapshotMagic
	if compact {
		magic = snapshotMagicV2
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("hdface: snapshot magic: %w", err)
	}
	var cfgBuf bytes.Buffer
	if err := gob.NewEncoder(&cfgBuf).Encode(cfg); err != nil {
		return fmt.Errorf("hdface: snapshot config: %w", err)
	}
	if cfgBuf.Len() > maxSnapshotConfigBytes {
		return fmt.Errorf("hdface: snapshot config %d bytes exceeds %d", cfgBuf.Len(), maxSnapshotConfigBytes)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(cfgBuf.Len())); err != nil {
		return fmt.Errorf("hdface: snapshot config length: %w", err)
	}
	if _, err := w.Write(cfgBuf.Bytes()); err != nil {
		return fmt.Errorf("hdface: snapshot config: %w", err)
	}
	hasModel := byte(0)
	if model != nil {
		hasModel = 1
	}
	if _, err := w.Write([]byte{hasModel}); err != nil {
		return fmt.Errorf("hdface: snapshot model flag: %w", err)
	}
	if model != nil {
		var err error
		if compact {
			err = model.SaveCompact(w)
		} else {
			err = model.Save(w)
		}
		if err != nil {
			return fmt.Errorf("hdface: snapshot model: %w", err)
		}
	}
	return nil
}

// LoadSnapshot reads an hdface-model/v1 snapshot, validates the embedded
// configuration before acting on it, rebuilds the front-end bases from the
// config seed, and attaches the trained classifier (if present). The
// returned pipeline is behaviourally identical to the one that was saved.
func LoadSnapshot(r io.Reader) (*Pipeline, error) {
	cfg, m, err := DecodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	p := New(cfg)
	p.model = m
	return p, nil
}

// DecodeSnapshot reads and validates an hdface-model/v1 blob, returning
// the embedded config and trained model (nil if untrained) without
// rematerialising the pipeline's hypervector bases. The registry uses this
// to load per-version class memory cheaply: every version under one
// registry dir shares a config, so a single Pipeline serves them all.
func DecodeSnapshot(r io.Reader) (Config, *hdc.Model, error) {
	compact, err := readSnapshotMagic(r)
	if err != nil {
		return Config{}, nil, err
	}
	if compact {
		return Config{}, nil, fmt.Errorf("hdface: hdface-model/v2 snapshot where v1 expected")
	}
	return decodeSnapshotBody(r, false)
}

// DecodeSnapshotV2 reads and validates an hdface-model/v2 compact blob.
func DecodeSnapshotV2(r io.Reader) (Config, *hdc.Model, error) {
	compact, err := readSnapshotMagic(r)
	if err != nil {
		return Config{}, nil, err
	}
	if !compact {
		return Config{}, nil, fmt.Errorf("hdface: hdface-model/v1 snapshot where v2 expected")
	}
	return decodeSnapshotBody(r, true)
}

// DecodeSnapshotAuto sniffs the 16-byte magic and decodes either container
// version. The registry and tenant store load through this, so a directory
// can mix v1 and v2 files during migration.
func DecodeSnapshotAuto(r io.Reader) (Config, *hdc.Model, error) {
	compact, err := readSnapshotMagic(r)
	if err != nil {
		return Config{}, nil, err
	}
	return decodeSnapshotBody(r, compact)
}

// SnapshotInfo reads only the header of either container version: magic,
// validated config and model-presence flag, stopping before the class-memory
// payload. The tenant store uses it to index thousands of blobs at open
// without materialising any of them; Compact reports whether the payload is
// the v2 compact form.
func SnapshotInfo(r io.Reader) (cfg Config, hasModel bool, compact bool, err error) {
	compact, err = readSnapshotMagic(r)
	if err != nil {
		return Config{}, false, false, err
	}
	cfg, flag, err := decodeSnapshotHeader(r)
	if err != nil {
		return Config{}, false, false, err
	}
	return cfg, flag == 1, compact, nil
}

// readSnapshotMagic consumes the fixed-size magic prefix and reports whether
// the container is the v2 compact form.
func readSnapshotMagic(r io.Reader) (compact bool, err error) {
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return false, fmt.Errorf("hdface: snapshot magic: %w", err)
	}
	switch string(magic) {
	case snapshotMagic:
		return false, nil
	case snapshotMagicV2:
		return true, nil
	default:
		return false, fmt.Errorf("hdface: not an hdface-model snapshot (magic %q)", magic)
	}
}

// decodeSnapshotHeader reads the length-prefixed config gob and the model
// flag, validating both.
func decodeSnapshotHeader(r io.Reader) (Config, byte, error) {
	var cfg Config
	var cfgLen uint32
	if err := binary.Read(r, binary.LittleEndian, &cfgLen); err != nil {
		return cfg, 0, fmt.Errorf("hdface: snapshot config length: %w", err)
	}
	if cfgLen == 0 || cfgLen > maxSnapshotConfigBytes {
		return cfg, 0, fmt.Errorf("hdface: snapshot config length %d outside (0, %d]", cfgLen, maxSnapshotConfigBytes)
	}
	cfgBytes := make([]byte, cfgLen)
	if _, err := io.ReadFull(r, cfgBytes); err != nil {
		return cfg, 0, fmt.Errorf("hdface: snapshot config: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(cfgBytes)).Decode(&cfg); err != nil {
		return Config{}, 0, fmt.Errorf("hdface: snapshot config: %w", err)
	}
	if err := validateSnapshotConfig(cfg); err != nil {
		return Config{}, 0, err
	}
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return Config{}, 0, fmt.Errorf("hdface: snapshot model flag: %w", err)
	}
	if flag[0] > 1 {
		return Config{}, 0, fmt.Errorf("hdface: snapshot model flag %d invalid", flag[0])
	}
	return cfg, flag[0], nil
}

// decodeSnapshotBody decodes the container after its magic has been
// consumed.
func decodeSnapshotBody(r io.Reader, compact bool) (Config, *hdc.Model, error) {
	cfg, flag, err := decodeSnapshotHeader(r)
	if err != nil {
		return Config{}, nil, err
	}
	if flag == 0 {
		return cfg, nil, nil
	}
	var m *hdc.Model
	if compact {
		m, err = hdc.LoadCompact(r)
	} else {
		m, err = hdc.Load(r)
	}
	if err != nil {
		return Config{}, nil, fmt.Errorf("hdface: snapshot model: %w", err)
	}
	if m.D != cfg.D {
		return Config{}, nil, fmt.Errorf("hdface: snapshot model D=%d does not match config D=%d", m.D, cfg.D)
	}
	return cfg, m, nil
}

// validateSnapshotConfig bounds every field a snapshot can set before the
// config drives any allocation or goroutine count. The limits are generous
// for real use and ludicrous for hostile input.
func validateSnapshotConfig(cfg Config) error {
	if cfg.D < 1 || cfg.D > snapshotD {
		return fmt.Errorf("hdface: snapshot config D=%d outside [1, %d]", cfg.D, snapshotD)
	}
	if cfg.Mode < ModeStochHOG || cfg.Mode > ModeOrigHOG {
		return fmt.Errorf("hdface: snapshot config mode %d unknown", cfg.Mode)
	}
	if cfg.WorkingSize < 0 || cfg.WorkingSize > 1<<14 {
		return fmt.Errorf("hdface: snapshot config working size %d outside [0, %d]", cfg.WorkingSize, 1<<14)
	}
	if cfg.Workers < 0 || cfg.Workers > 1<<12 {
		return fmt.Errorf("hdface: snapshot config workers %d outside [0, %d]", cfg.Workers, 1<<12)
	}
	if cfg.SqrtIterations < 0 || cfg.SqrtIterations > 1<<10 {
		return fmt.Errorf("hdface: snapshot config sqrt iterations %d outside [0, %d]", cfg.SqrtIterations, 1<<10)
	}
	if cfg.Stride < 0 || cfg.Stride > 1<<8 {
		return fmt.Errorf("hdface: snapshot config stride %d outside [0, %d]", cfg.Stride, 1<<8)
	}
	if cfg.Train.Epochs < 0 || cfg.Train.Epochs > 1<<16 {
		return fmt.Errorf("hdface: snapshot config epochs %d outside [0, %d]", cfg.Train.Epochs, 1<<16)
	}
	return nil
}

// SaveSnapshotFile writes the snapshot to path via a same-directory
// temporary file and rename, so a crash mid-write never leaves a torn
// snapshot where a daemon expects a valid one.
func (p *Pipeline) SaveSnapshotFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("hdface: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := p.SaveSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("hdface: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("hdface: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshotFile loads a snapshot from path.
func LoadSnapshotFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hdface: snapshot open: %w", err)
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// SetWorkers overrides the extraction parallelism of a (typically loaded)
// pipeline. Since features are pure functions of (Config minus Workers,
// image), changing it never changes outputs — only throughput.
func (p *Pipeline) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p.cfg.Workers = n
	obsWorkers.Set(float64(n))
}
