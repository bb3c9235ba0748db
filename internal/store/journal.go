package store

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repaircount/internal/faultfs"
	"repaircount/internal/relational"
)

// JournalOp is one journaled mutation: the insertion (Del=false) or
// deletion (Del=true) of a fact.
type JournalOp struct {
	Del  bool
	Fact relational.Fact
}

// EncodeJournal serializes ops as one self-contained journal block, ready
// to append after a sealed snapshot. It fails on empty op lists and on
// symbols exceeding the format's length fields.
func EncodeJournal(ops []JournalOp) ([]byte, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("store: empty journal block")
	}
	if len(ops) > math.MaxUint32 {
		return nil, fmt.Errorf("store: %d ops exceed the journal count field", len(ops))
	}
	var payload []byte
	var u16 [2]byte
	var u32 [4]byte
	for _, op := range ops {
		b := byte(opInsert)
		if op.Del {
			b = opDelete
		}
		payload = append(payload, b)
		if len(op.Fact.Pred) > math.MaxUint16 {
			return nil, fmt.Errorf("store: predicate of %d bytes exceeds the journal length field", len(op.Fact.Pred))
		}
		le.PutUint16(u16[:], uint16(len(op.Fact.Pred)))
		payload = append(payload, u16[:]...)
		payload = append(payload, op.Fact.Pred...)
		if len(op.Fact.Args) > math.MaxUint16 {
			return nil, fmt.Errorf("store: arity %d exceeds the journal count field", len(op.Fact.Args))
		}
		le.PutUint16(u16[:], uint16(len(op.Fact.Args)))
		payload = append(payload, u16[:]...)
		for _, a := range op.Fact.Args {
			if len(a) > math.MaxInt32 {
				return nil, fmt.Errorf("store: constant of %d bytes exceeds the journal length field", len(a))
			}
			le.PutUint32(u32[:], uint32(len(a)))
			payload = append(payload, u32[:]...)
			payload = append(payload, a...)
		}
	}
	block := make([]byte, 0, journalHeaderSize+len(payload)+journalTrailerLen)
	block = append(block, journalMagic...)
	le.PutUint32(u32[:], uint32(len(ops)))
	block = append(block, u32[:]...)
	var u64 [8]byte
	le.PutUint64(u64[:], uint64(len(payload)))
	block = append(block, u64[:]...)
	block = append(block, payload...)
	le.PutUint64(u64[:], uint64(crc32.Checksum(block, crcTable)))
	return append(block, u64[:]...), nil
}

// parseJournal decodes the journal region of a snapshot (every byte after
// the sealed base) into the op sequence, validating each block's framing,
// checksum and op structure. It is strict: a torn tail is an error here
// (RecoverFile is the repair path).
func parseJournal(data []byte) ([]JournalOp, error) {
	ops, valid, err := scanJournal(data)
	if err != nil {
		return nil, err
	}
	if valid != len(data) {
		return nil, corrupt("torn journal tail: %d bytes after the last complete block (recover the file first)", len(data)-valid)
	}
	return ops, nil
}

// scanJournal decodes the longest valid prefix of a journal region. It
// returns the ops of every complete, checksummed block and the byte
// length of that prefix. A trailing region explainable by a torn append —
// a partial block frame, a payload overrunning the file, or a final
// full-length block failing its checksum (pages can persist out of
// order) — is not an error: the scan stops before it and valid <
// len(data). Damage that truncation cannot explain — garbage where a
// block must start, a checksum failure before the final block, or a
// checksummed block whose ops are malformed — is corruption and fails
// loudly: recovery must never silently drop a committed block.
func scanJournal(data []byte) (ops []JournalOp, valid int, err error) {
	off := 0
	for blockNo := 0; off < len(data); blockNo++ {
		rest := data[off:]
		if len(rest) >= len(journalMagic) && string(rest[:len(journalMagic)]) != journalMagic {
			return nil, 0, corrupt("journal block %d: bad magic %q", blockNo, rest[:len(journalMagic)])
		}
		if len(rest) < journalHeaderSize+journalTrailerLen {
			return ops, off, nil // torn: partial block frame
		}
		count := le.Uint32(rest[4:])
		plen := le.Uint64(rest[8:])
		total := uint64(journalHeaderSize) + plen + journalTrailerLen
		if plen > uint64(len(rest)) || total > uint64(len(rest)) {
			return ops, off, nil // torn: payload overruns the file
		}
		body := rest[:journalHeaderSize+plen]
		if got, want := uint64(crc32.Checksum(body, crcTable)), le.Uint64(rest[journalHeaderSize+plen:]); got != want {
			if total == uint64(len(rest)) {
				return ops, off, nil // torn: final block, checksum incomplete
			}
			return nil, 0, corrupt("journal block %d: checksum mismatch: block says %#x, content hashes to %#x", blockNo, want, got)
		}
		if count == 0 {
			return nil, 0, corrupt("journal block %d: zero ops", blockNo)
		}
		p := body[journalHeaderSize:]
		blockOps, err := parseJournalOps(p, blockNo, count)
		if err != nil {
			return nil, 0, err
		}
		ops = append(ops, blockOps...)
		off += int(total)
	}
	return ops, off, nil
}

// parseJournalOps decodes the op records of one checksummed block payload.
func parseJournalOps(p []byte, blockNo int, count uint32) ([]JournalOp, error) {
	ops := make([]JournalOp, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 3 {
			return nil, corrupt("journal block %d: op %d is truncated", blockNo, i)
		}
		kind := p[0]
		if kind != opInsert && kind != opDelete {
			return nil, corrupt("journal block %d: op %d has unknown kind %d", blockNo, i, kind)
		}
		predLen := int(le.Uint16(p[1:]))
		p = p[3:]
		if predLen == 0 {
			return nil, corrupt("journal block %d: op %d has an empty predicate", blockNo, i)
		}
		if len(p) < predLen+2 {
			return nil, corrupt("journal block %d: op %d predicate overruns the payload", blockNo, i)
		}
		pred := string(p[:predLen])
		nargs := int(le.Uint16(p[predLen:]))
		p = p[predLen+2:]
		args := make([]relational.Const, nargs)
		for a := 0; a < nargs; a++ {
			if len(p) < 4 {
				return nil, corrupt("journal block %d: op %d argument %d is truncated", blockNo, i, a)
			}
			alen := le.Uint32(p)
			if uint64(alen) > uint64(len(p)-4) {
				return nil, corrupt("journal block %d: op %d argument %d overruns the payload", blockNo, i, a)
			}
			args[a] = relational.Const(p[4 : 4+alen])
			p = p[4+alen:]
		}
		ops = append(ops, JournalOp{Del: kind == opDelete, Fact: relational.Fact{Pred: pred, Args: args}})
	}
	if len(p) != 0 {
		return nil, corrupt("journal block %d: %d payload bytes left after %d ops", blockNo, len(p), count)
	}
	return ops, nil
}

// AppendJournal appends ops as one journal block to the snapshot file at
// path, without touching the sealed base bytes. It validates before it
// writes (ValidateJournal): an op the snapshot cannot absorb fails the
// append instead of poisoning every future load. That costs a load of
// the whole snapshot, so it is the path for callers holding no live
// instance of the file (repairctl apply, the library's AppendJournal).
// A caller that has already applied the ops to a live instance loaded
// from this file — the serving daemon — appends with AppendJournalBlock
// instead, at a cost independent of the snapshot's size.
func AppendJournal(path string, ops []JournalOp) error {
	block, err := EncodeJournal(ops)
	if err != nil {
		return err
	}
	if err := ValidateJournal(path, ops); err != nil {
		return err
	}
	return appendBlock(path, block)
}

// ValidateJournal proves that ops can be journaled to the snapshot file
// at path: the current file (base plus any earlier journal blocks) is
// loaded and the ops are replayed against it in memory. An arity clash,
// or a file whose base or journal region no longer decodes, is an error.
// The file is not modified.
func ValidateJournal(path string, ops []JournalOp) error {
	snap, err := Open(path)
	if err != nil {
		return err
	}
	live, err := snap.Live()
	if err != nil {
		snap.Close()
		return err
	}
	for i, op := range ops {
		if _, err := live.Apply(op.Del, op.Fact); err != nil {
			snap.Close()
			return fmt.Errorf("store: journal op %d (%s) cannot apply to %s: %w", i, op.Fact, path, err)
		}
	}
	return snap.Close()
}

// AppendJournalBlock appends ops as one journal block to the snapshot
// file at path without validating them: it encodes the block, writes it
// after the current end of the file and fsyncs, so its cost follows the
// batch, not the snapshot. The caller vouches that the ops apply — it has
// applied them to a live instance equal to what the file loads to, as the
// serving daemon has when it journals a batch. The write extends the file
// by one self-contained block; earlier bytes are never modified, so a
// crash mid-append leaves a torn tail that RecoverFile truncates.
func AppendJournalBlock(path string, ops []JournalOp) error {
	block, err := EncodeJournal(ops)
	if err != nil {
		return err
	}
	return appendBlock(path, block)
}

// appendBlock writes one encoded journal block after the current end of
// the file at path and fsyncs it.
func appendBlock(path string, block []byte) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	f, err := faultfs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(block, st.Size()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RecoverFile repairs a snapshot whose last journal append was torn by a
// crash: it validates the sealed base, scans the journal region for its
// longest valid block prefix, proves the file truncated to that prefix
// loads cleanly, and truncates (with an fsync) — the recovered snapshot
// is bit-identical to the last committed state. It returns the number of
// torn bytes dropped (0 for an already-clean file). Damage beyond a torn
// tail — a base failing its checksum, garbage between blocks, a
// checksummed block that does not decode — is an error: RecoverFile never
// invents a state, so a recovered file either matches a state that was
// committed or the call fails loudly.
func RecoverFile(path string) (dropped int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < headerSize+trailerLen {
		return 0, corrupt("%d bytes is shorter than header plus trailer", len(data))
	}
	if string(data[:4]) != magic {
		return 0, corrupt("bad magic %q", data[:4])
	}
	base := le.Uint64(data[16:])
	if base < headerSize+trailerLen || base > uint64(len(data)) {
		// The base is written atomically (temp file + rename), so a header
		// claiming more bytes than the file holds is not a torn append.
		return 0, corrupt("header says %d bytes, have %d", base, len(data))
	}
	if _, err := Decode(data[:base]); err != nil {
		return 0, err
	}
	_, valid, err := scanJournal(data[base:])
	if err != nil {
		return 0, err
	}
	keep := int64(base) + int64(valid)
	dropped = int64(len(data)) - keep
	if dropped == 0 {
		return 0, nil
	}
	// Prove the truncated image loads before committing the truncation.
	if _, err := Decode(data[:keep]); err != nil {
		return 0, fmt.Errorf("store: recovered prefix of %s does not load: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return dropped, nil
}

// CompactFile reseals the snapshot at src — base plus any appended journal
// — as a clean, journal-free snapshot at dst with all precomputed
// sections. The compacted snapshot loads to the same instance (and the
// same counts) as replaying the journal.
func CompactFile(src, dst string) error {
	snap, err := Open(src)
	if err != nil {
		return err
	}
	defer snap.Close()
	db, err := snap.Database()
	if err != nil {
		return err
	}
	ks, err := snap.Keys()
	if err != nil {
		return err
	}
	return WriteFile(dst, db, ks)
}
