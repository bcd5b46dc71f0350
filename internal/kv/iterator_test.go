package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func entriesOf(pairs ...string) []Entry {
	// pairs are "key@seq=value"
	var es []Entry
	for _, p := range pairs {
		var k, v string
		var seq int
		if _, err := fmt.Sscanf(p, "%1s@%d=%1s", &k, &seq, &v); err != nil {
			panic(err)
		}
		es = append(es, Entry{Key: MakeKey([]byte(k), SeqNum(seq), KindSet), Value: []byte(v)})
	}
	sort.Slice(es, func(i, j int) bool { return Compare(es[i].Key, es[j].Key) < 0 })
	return es
}

func collect(it Iterator) []string {
	var out []string
	for ok := it.First(); ok; ok = it.Next() {
		ukey, seq, _, _ := ParseKey(it.Key())
		out = append(out, fmt.Sprintf("%s@%d=%s", ukey, seq, it.Value()))
	}
	return out
}

func TestEmptyIterator(t *testing.T) {
	var it EmptyIterator
	if it.First() || it.SeekGE(nil) || it.Next() || it.Valid() {
		t.Error("empty iterator must never be valid")
	}
	if it.Key() != nil || it.Value() != nil || it.Close() != nil {
		t.Error("empty iterator accessors")
	}
}

func TestSliceIterator(t *testing.T) {
	es := entriesOf("a@1=1", "b@2=2", "c@3=3")
	it := NewSliceIterator(es)
	got := collect(it)
	want := []string{"a@1=1", "b@2=2", "c@3=3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if it.Close() != nil {
		t.Error("close")
	}
}

func TestSliceIteratorSeekGE(t *testing.T) {
	es := entriesOf("a@1=1", "c@3=3", "e@5=5")
	it := NewSliceIterator(es)
	if !it.SeekGE(MakeSearchKey([]byte("b"), MaxSeqNum)) {
		t.Fatal("seek b should land on c")
	}
	if string(UserKey(it.Key())) != "c" {
		t.Errorf("landed on %q", UserKey(it.Key()))
	}
	if it.SeekGE(MakeSearchKey([]byte("f"), MaxSeqNum)) {
		t.Error("seek past end must be invalid")
	}
	if !it.SeekGE(MakeSearchKey([]byte("a"), MaxSeqNum)) || string(UserKey(it.Key())) != "a" {
		t.Error("seek to first key")
	}
}

func TestSliceIteratorInvalidAfterEnd(t *testing.T) {
	it := NewSliceIterator(entriesOf("a@1=1"))
	it.First()
	if it.Next() {
		t.Error("next past end")
	}
	if it.Next() {
		t.Error("next stays invalid")
	}
}

func TestMergingIteratorInterleaves(t *testing.T) {
	a := NewSliceIterator(entriesOf("a@1=1", "d@4=4"))
	b := NewSliceIterator(entriesOf("b@2=2", "e@5=5"))
	c := NewSliceIterator(entriesOf("c@3=3"))
	m := NewMergingIterator(a, b, c)
	got := collect(m)
	want := []string{"a@1=1", "b@2=2", "c@3=3", "d@4=4", "e@5=5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergingIteratorVersionsNewestFirst(t *testing.T) {
	// Same user key in two runs: the higher seq must come out first.
	newer := NewSliceIterator(entriesOf("k@9=n"))
	older := NewSliceIterator(entriesOf("k@3=o"))
	m := NewMergingIterator(older, newer) // order of sources must not matter
	got := collect(m)
	want := []string{"k@9=n", "k@3=o"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergingIteratorSeekGE(t *testing.T) {
	a := NewSliceIterator(entriesOf("a@1=1", "c@3=3"))
	b := NewSliceIterator(entriesOf("b@2=2", "d@4=4"))
	m := NewMergingIterator(a, b)
	if !m.SeekGE(MakeSearchKey([]byte("c"), MaxSeqNum)) {
		t.Fatal("seek c")
	}
	var got []string
	for ; m.Valid(); m.Next() {
		got = append(got, string(UserKey(m.Key())))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"c", "d"}) {
		t.Errorf("got %v", got)
	}
}

func TestMergingIteratorEmptySources(t *testing.T) {
	m := NewMergingIterator(EmptyIterator{}, NewSliceIterator(nil), nil)
	if m.First() {
		t.Error("all-empty merge must be invalid")
	}
	if m.Next() {
		t.Error("next on empty merge")
	}
	if m.Close() != nil {
		t.Error("close")
	}
}

func TestMergingIteratorRandomizedAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var all []Entry
		var iters []Iterator
		nRuns := 1 + r.Intn(5)
		seq := SeqNum(1)
		for i := 0; i < nRuns; i++ {
			var run []Entry
			n := r.Intn(30)
			for j := 0; j < n; j++ {
				k := []byte{byte('a' + r.Intn(20))}
				e := Entry{Key: MakeKey(k, seq, KindSet), Value: []byte{byte(seq)}}
				seq++
				run = append(run, e)
			}
			sort.Slice(run, func(x, y int) bool { return Compare(run[x].Key, run[y].Key) < 0 })
			all = append(all, run...)
			iters = append(iters, NewSliceIterator(run))
		}
		sort.Slice(all, func(x, y int) bool { return Compare(all[x].Key, all[y].Key) < 0 })
		m := NewMergingIterator(iters...)
		i := 0
		for ok := m.First(); ok; ok = m.Next() {
			if Compare(m.Key(), all[i].Key) != 0 {
				t.Fatalf("trial %d: position %d mismatch", trial, i)
			}
			i++
		}
		if i != len(all) {
			t.Fatalf("trial %d: merged %d entries, want %d", trial, i, len(all))
		}
	}
}

// failingIter is a sorted source whose entries from failAt on sit in a
// bad block: landing there reports exhaustion and keeps the read error.
type failingIter struct {
	*SliceIterator
	failAt int
	err    error
}

var errBadBlock = errors.New("bad block")

func (f *failingIter) check(ok bool) bool {
	if ok && f.idx >= f.failAt {
		f.err = errBadBlock
		f.idx = len(f.entries)
		return false
	}
	return ok
}

func (f *failingIter) First() bool           { return f.check(f.SliceIterator.First()) }
func (f *failingIter) Next() bool            { return f.check(f.SliceIterator.Next()) }
func (f *failingIter) SeekGE(ik []byte) bool { return f.check(f.SliceIterator.SeekGE(ik)) }
func (f *failingIter) Error() error          { return f.err }

// TestMergingIteratorSeekPastMatchesStepping checks SeekPast against
// stepping with Next until the stream reaches the target, over random
// sources with long runs of one user key's versions, including sources
// that run out mid-seek.
func TestMergingIteratorSeekPastMatchesStepping(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]Entry, 1+r.Intn(6))
		seq := SeqNum(1)
		for i := range runs {
			n := r.Intn(60)
			for j := 0; j < n; j++ {
				// Few user keys, so each source holds runs of versions.
				k := []byte{byte('a' + r.Intn(4))}
				s, kind := seq, Kind(r.Intn(6))
				if r.Intn(20) == 0 {
					s, kind = 0, KindDelete // (k, 0, 0): the smallest key of k
				}
				runs[i] = append(runs[i], Entry{Key: MakeKey(k, s, kind), Value: []byte{byte(seq)}})
				seq++
			}
			sort.Slice(runs[i], func(x, y int) bool { return Compare(runs[i][x].Key, runs[i][y].Key) < 0 })
		}
		sources := func() []Iterator {
			its := make([]Iterator, len(runs))
			for i, run := range runs {
				its[i] = NewSliceIterator(run)
			}
			return its
		}
		seek, step := NewMergingIterator(sources()...), NewMergingIterator(sources()...)
		okSeek, okStep := seek.First(), step.First()
		var target []byte
		for moves := 0; okSeek && okStep; moves++ {
			if Compare(seek.Key(), step.Key()) != 0 || string(seek.Value()) != string(step.Value()) {
				t.Fatalf("trial %d move %d: SeekPast at %v, stepping at %v", trial, moves, seek.Key(), step.Key())
			}
			if r.Intn(3) == 0 {
				okSeek, okStep = seek.Next(), step.Next()
				continue
			}
			// Past every version of the current key, up to its smallest
			// version, or past its versions newer than some snapshot.
			ukey, cur, _, _ := ParseKey(seek.Key())
			switch r.Intn(3) {
			case 0:
				target = AppendSearchKey(append(append(target[:0], ukey...), 0), nil, MaxSeqNum)
			case 1:
				target = AppendKey(target[:0], ukey, 0, 0)
			default:
				target = AppendSearchKey(target[:0], ukey, SeqNum(r.Intn(int(cur)+1)))
			}
			okSeek = seek.SeekPast(target)
			for okStep = step.Valid(); okStep && Compare(step.Key(), target) < 0; {
				okStep = step.Next()
			}
		}
		if okSeek != okStep {
			t.Fatalf("trial %d: SeekPast valid=%v, stepping valid=%v", trial, okSeek, okStep)
		}
	}
}

// TestMergingIteratorSeekPastExhaustedAndCorrupt checks that a source
// SeekPast runs out of leaves the heap cleanly, and that one whose seek
// lands on a bad block leaves it with the read error kept for Error.
func TestMergingIteratorSeekPastExhaustedAndCorrupt(t *testing.T) {
	short := NewSliceIterator(entriesOf("a@5=x", "a@3=y"))
	corrupt := &failingIter{SliceIterator: NewSliceIterator(entriesOf("a@9=p", "a@8=q", "a@1=r", "b@10=s", "c@11=t")), failAt: 3}
	rest := NewSliceIterator(entriesOf("a@7=u", "d@12=v"))
	m := NewMergingIterator(short, corrupt, rest)
	if !m.First() || string(m.Value()) != "p" {
		t.Fatal("first")
	}
	if !m.SeekPast(AppendKey(nil, []byte("a"), 0, 0)) {
		t.Fatal("stream must continue on the healthy source")
	}
	var got []string
	for ok := m.Valid(); ok; ok = m.Next() {
		got = append(got, string(m.Value()))
	}
	if fmt.Sprint(got) != "[v]" {
		t.Fatalf("after SeekPast: %v, want [v]", got)
	}
	if short.Valid() || IterError(short) != nil {
		t.Error("exhausted source must be invalid without an error")
	}
	if !errors.Is(m.Error(), errBadBlock) {
		t.Fatalf("Error() = %v, want the bad block", m.Error())
	}
}
