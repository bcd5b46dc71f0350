package core

import (
	"errors"
	"fmt"

	"lsmlab/internal/kv"
	"lsmlab/internal/wal"
	"lsmlab/internal/wisckey"
)

// MergeOperator folds read-modify-write operands into values (tutorial
// §2.2.6). Implementations must be deterministic and associative in the
// PartialMerge sense.
type MergeOperator interface {
	// FullMerge computes the final value from the existing base value
	// (nil when the key had none) and the operands, oldest first.
	FullMerge(key, existing []byte, operands [][]byte) ([]byte, error)
	// PartialMerge combines two adjacent operands (older applied first)
	// into one, reporting false if they cannot be combined; compaction
	// then keeps them separate.
	PartialMerge(key, older, newer []byte) ([]byte, bool)
}

// ErrNoMergeOperator is returned by Merge when no operator is
// configured.
var ErrNoMergeOperator = errors.New("lsm: no merge operator configured")

// Merge records a read-modify-write operand for key. The operand is
// folded into the key's value by Options.MergeOperator at read or
// compaction time — the write itself never reads (the blind-write
// advantage of the LSM RMW path).
func (db *DB) Merge(key, operand []byte) error {
	if db.opts.MergeOperator == nil {
		return ErrNoMergeOperator
	}
	var b Batch
	b.Merge(key, operand)
	return db.Apply(&b)
}

// Merge adds a merge operand to the batch.
func (b *Batch) Merge(key, operand []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindMerge, Key: cp(key), Value: cp(operand)})
}

// resolveMergeSlow computes the merged value of key at snapshot snap
// from the sources of the pinned state rs, starting from the
// already-found newest operand. It walks every version of the key
// across all sources, collecting operands until a base value (Set), a
// tombstone, or the end of the key's history.
func (db *DB) resolveMergeSlow(rs *readState, key []byte, snap kv.SeqNum) ([]byte, error) {
	// Build a merged internal iterator over all sources, like
	// NewIterator but without user-facing settling.
	var sources []kv.Iterator
	var rangeDels []kv.RangeTombstone
	for _, mw := range rs.mems {
		sources = append(sources, mw.mt.NewIterator())
		rangeDels = append(rangeDels, mw.rangeTombstones()...)
	}
	for _, level := range rs.version.Levels {
		for _, run := range level.Runs {
			f := run.FindFile(key)
			if f == nil {
				continue
			}
			r, err := db.tcache.get(f.Num)
			if err != nil {
				return nil, err
			}
			sources = append(sources, r.NewIterator())
			rangeDels = append(rangeDels, r.RangeTombstones()...)
		}
	}
	merge := kv.NewMergingIterator(sources...)
	defer merge.Close()

	covered := func(seq kv.SeqNum) bool {
		for _, rt := range rangeDels {
			if rt.Seq <= snap && rt.Seq > seq && rt.Covers(key, seq) {
				return true
			}
		}
		return false
	}

	// Operands are collected newest-first and reversed for FullMerge.
	var newestFirst [][]byte
	var base []byte
	ok := merge.SeekGE(kv.MakeSearchKey(key, snap))
	for ; ok; ok = merge.Next() {
		uk, seq, kind, _ := kv.ParseKey(merge.Key())
		if kv.CompareUser(uk, key) != 0 {
			break
		}
		if !kv.Visible(seq, snap) {
			continue
		}
		if covered(seq) {
			break // everything older is deleted by a range tombstone
		}
		done := false
		switch kind {
		case kv.KindMerge:
			newestFirst = append(newestFirst, cp(merge.Value()))
		case kv.KindSet:
			base = cp(merge.Value())
			done = true
		case kv.KindValuePointer:
			p, err := wisckey.DecodePointer(merge.Value())
			if err != nil {
				return nil, err
			}
			v, err := db.vlog.Read(p)
			if err != nil {
				return nil, err
			}
			base = v
			done = true
		default: // tombstones end the history with no base
			done = true
		}
		if done {
			break
		}
	}
	// A corrupt block ends the walk indistinguishably from a finished
	// history; folding a truncated operand chain would corrupt the value.
	if err := merge.Error(); err != nil {
		return nil, err
	}
	operands := make([][]byte, 0, len(newestFirst))
	for i := len(newestFirst) - 1; i >= 0; i-- {
		operands = append(operands, newestFirst[i])
	}
	v, err := db.opts.MergeOperator.FullMerge(key, base, operands)
	if err != nil {
		return nil, fmt.Errorf("lsm: merge operator: %w", err)
	}
	return v, nil
}
