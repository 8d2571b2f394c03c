package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint format: a little-endian binary stream with a magic header,
// the config dimensions (for validation), every MLP parameter tensor in
// VisitParams order, every owned embedding table, and a trailing CRC32 of
// all payload bytes. Unowned tables (distributed shards) are written as
// empty and skipped on load, so shard checkpoints compose — and compose
// ACROSS cluster shapes: restoring an R-rank run's shards into R′-rank
// models is exactly loading every old shard blob into each new shard model
// (the MLP replica is overwritten repeatedly with identical bytes; each
// table lands in the one new model that owns it). The tensors are the FP32
// working weights: a BF16 split's low halves (optim.Stored) are not written,
// so a split resumed from a checkpoint starts with them zeroed.
//
// Two versions share the layout:
//
//	v0 ("DLRM"): header + tensors + CRC — weights only.
//	v1 ("DLR1"): header + a length-prefixed TrainerState record (iteration
//	  counter, dataset seed, learning rate) + tensors + CRC. The length
//	  prefix lets future fields append without breaking older readers.
//
// Load/LoadWithState accept both, so pre-v1 weight-only checkpoints keep
// working. Header word 4 records the writer's MLP minibatch blocking (BN);
// it is informational — the packed weight layout is blocking-independent,
// and elastic restore deliberately loads across blockings (shard size, and
// with it mlpBlockFor's pick, changes with the rank count) — so Load only
// sanity-checks it, never requires equality.

const (
	ckptMagic   = 0x444C524D // "DLRM": v0, weights only
	ckptMagicV1 = 0x444C5231 // "DLR1": v1, adds the trainer-state record
)

// Typed checkpoint errors, matchable with errors.Is. Every failure mode of
// Load/LoadWithState wraps exactly one of these; none panics.
var (
	// ErrCheckpointMagic: the stream does not start with a known magic.
	ErrCheckpointMagic = errors.New("not a DLRM checkpoint")
	// ErrCheckpointTruncated: the stream ended before the format did.
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	// ErrCheckpointCorrupt: the stream is structurally damaged — CRC
	// mismatch, an implausible length field, a nonsensical header value, or
	// non-finite weights.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointMismatch: a well-formed checkpoint for a different model
	// shape (config dimensions or tensor lengths disagree).
	ErrCheckpointMismatch = errors.New("checkpoint does not match model")
)

// TrainerState is the v1 self-describing resume record: everything a
// restarted trainer needs beyond the weights. Iter is the number of
// completed global iterations (the next batch index to train on), Seed the
// dataset seed whose counter-based streams regenerate any batch, LR the
// learning rate in effect.
type TrainerState struct {
	Iter int64
	Seed int64
	LR   float32
}

// trainerStateBytes is the serialized size of the known TrainerState
// fields; v1 readers accept longer records and skip the tail.
const trainerStateBytes = 8 + 8 + 4

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// readErr classifies a decode error: clean or unexpected EOF means the
// stream ended mid-format (truncated); anything else passes through.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: %w: %v", ErrCheckpointTruncated, err)
	}
	return err
}

// Save serializes the model (MLP weights and owned embedding tables) to w
// in the v0 weights-only format — byte-identical to what pre-v1 versions
// wrote. Use SaveWithState to record the resume state too.
func (m *Model) Save(w io.Writer) error {
	return m.save(w, nil)
}

// SaveWithState serializes the model plus the trainer-state resume record
// (v1 format).
func (m *Model) SaveWithState(w io.Writer, st TrainerState) error {
	return m.save(w, &st)
}

func (m *Model) save(w io.Writer, st *TrainerState) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	magic := uint32(ckptMagic)
	if st != nil {
		magic = ckptMagicV1
	}
	hdr := []uint32{magic, uint32(m.Cfg.Tables), uint32(m.Cfg.EmbDim),
		uint32(m.Cfg.DenseIn), uint32(m.BN)}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	if st != nil {
		if err := binary.Write(cw, binary.LittleEndian, uint32(trainerStateBytes)); err != nil {
			return fmt.Errorf("core: checkpoint state: %w", err)
		}
		for _, v := range []any{st.Iter, st.Seed, st.LR} {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return fmt.Errorf("core: checkpoint state: %w", err)
			}
		}
	}
	writeTensor := func(p []float32) error {
		if err := binary.Write(cw, binary.LittleEndian, uint64(len(p))); err != nil {
			return err
		}
		return binary.Write(cw, binary.LittleEndian, p)
	}
	var err error
	for _, mlpNet := range []interface {
		VisitParams(func(string, []float32))
	}{m.Bot, m.Top} {
		mlpNet.VisitParams(func(_ string, p []float32) {
			if err == nil {
				err = writeTensor(p)
			}
		})
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint MLP: %w", err)
	}
	for _, tab := range m.Tables {
		if tab == nil {
			if err := binary.Write(cw, binary.LittleEndian, uint64(0)); err != nil {
				return err
			}
			continue
		}
		if err := writeTensor(tab.W); err != nil {
			return fmt.Errorf("core: checkpoint table: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

// Load restores a model previously saved with Save or SaveWithState into m;
// the model must have been constructed with the same config (the writer's
// MLP blocking need not match — see the format comment). Table slots that
// are empty in the checkpoint (unowned shards) are left untouched. Any
// trainer-state record is read and discarded; use LoadWithState to keep it.
func (m *Model) Load(r io.Reader) error {
	_, err := m.LoadWithState(r)
	return err
}

// LoadWithState restores a model like Load and returns the checkpoint's
// trainer-state record — nil for a v0 weights-only checkpoint.
func (m *Model) LoadWithState(r io.Reader) (*TrainerState, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	var hdr [5]uint32
	if err := binary.Read(cr, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", readErr(err))
	}
	if hdr[0] != ckptMagic && hdr[0] != ckptMagicV1 {
		return nil, fmt.Errorf("core: %w (magic %08x)", ErrCheckpointMagic, hdr[0])
	}
	if int(hdr[1]) != m.Cfg.Tables || int(hdr[2]) != m.Cfg.EmbDim || int(hdr[3]) != m.Cfg.DenseIn {
		return nil, fmt.Errorf("core: %w: S=%d E=%d D=%d vs model S=%d E=%d D=%d",
			ErrCheckpointMismatch, hdr[1], hdr[2], hdr[3], m.Cfg.Tables, m.Cfg.EmbDim, m.Cfg.DenseIn)
	}
	if hdr[4] < 1 {
		// The writer's blocking is informational, but zero is impossible —
		// a damaged header, not a different shape.
		return nil, fmt.Errorf("core: %w: header blocking %d", ErrCheckpointCorrupt, hdr[4])
	}
	var st *TrainerState
	if hdr[0] == ckptMagicV1 {
		var n uint32
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("core: checkpoint state: %w", readErr(err))
		}
		if n < trainerStateBytes || n > 4096 {
			return nil, fmt.Errorf("core: %w: trainer-state record of %d bytes", ErrCheckpointCorrupt, n)
		}
		st = &TrainerState{}
		for _, v := range []any{&st.Iter, &st.Seed, &st.LR} {
			if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("core: checkpoint state: %w", readErr(err))
			}
		}
		// Skip fields a future writer appended to the record.
		if _, err := io.CopyN(io.Discard, cr, int64(n)-trainerStateBytes); err != nil {
			return nil, fmt.Errorf("core: checkpoint state: %w", readErr(err))
		}
	}
	readTensor := func(p []float32) error {
		var n uint64
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return readErr(err)
		}
		if int(n) != len(p) {
			return fmt.Errorf("%w: tensor length %d, model expects %d", ErrCheckpointMismatch, n, len(p))
		}
		return readErr(binary.Read(cr, binary.LittleEndian, p))
	}
	var err error
	for _, mlpNet := range []interface {
		VisitParams(func(string, []float32))
	}{m.Bot, m.Top} {
		mlpNet.VisitParams(func(_ string, p []float32) {
			if err == nil {
				err = readTensor(p)
			}
		})
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint MLP: %w", err)
	}
	m.Bot.InvalidateTransposes()
	m.Top.InvalidateTransposes()
	for ti, tab := range m.Tables {
		var n uint64
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("core: checkpoint table %d: %w", ti, readErr(err))
		}
		if n == 0 {
			continue
		}
		if n > 1<<40 {
			// A flipped bit in a length field, not a real table: no table in
			// this codebase approaches 2^40 floats, and trusting the value
			// would turn a corrupt stream into a near-endless skip.
			return nil, fmt.Errorf("core: %w: table %d length %d", ErrCheckpointCorrupt, ti, n)
		}
		if tab == nil {
			// Skip an unowned table's payload.
			if _, err := io.CopyN(io.Discard, cr, int64(n)*4); err != nil {
				return nil, fmt.Errorf("core: checkpoint table %d: %w", ti, readErr(err))
			}
			continue
		}
		if int(n) != len(tab.W) {
			return nil, fmt.Errorf("core: %w: table %d length %d, model expects %d",
				ErrCheckpointMismatch, ti, n, len(tab.W))
		}
		if err := binary.Read(cr, binary.LittleEndian, tab.W); err != nil {
			return nil, fmt.Errorf("core: checkpoint table %d: %w", ti, readErr(err))
		}
	}
	want := cr.crc
	var got uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("core: checkpoint CRC: %w", readErr(err))
	}
	if got != want {
		return nil, fmt.Errorf("core: %w: crc %08x want %08x", ErrCheckpointCorrupt, got, want)
	}
	if err := m.validateFinite(); err != nil {
		return nil, err
	}
	return st, nil
}

// validateFinite rejects checkpoints holding NaN/Inf weights.
func (m *Model) validateFinite() error {
	bad := false
	check := func(p []float32) {
		for _, v := range p {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				bad = true
				return
			}
		}
	}
	m.Bot.VisitParams(func(_ string, p []float32) { check(p) })
	m.Top.VisitParams(func(_ string, p []float32) { check(p) })
	for _, tab := range m.Tables {
		if tab != nil {
			check(tab.W)
		}
	}
	if bad {
		return fmt.Errorf("core: %w: non-finite weights", ErrCheckpointCorrupt)
	}
	return nil
}
