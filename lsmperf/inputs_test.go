package main

import (
	"bytes"
	"testing"
)

func sameInputs(a, b *inputs) bool {
	streams := func(x, y *stream) bool {
		if x == nil || y == nil {
			return x == y
		}
		return bytes.Equal(x.keys, y.keys) && bytes.Equal(x.kinds, y.kinds)
	}
	if !bytes.Equal(a.vals.pool, b.vals.pool) || !streams(a.preload, b.preload) ||
		!streams(a.warm, b.warm) || len(a.callers) != len(b.callers) || len(a.groups) != len(b.groups) {
		return false
	}
	for i := range a.callers {
		if !streams(a.callers[i], b.callers[i]) {
			return false
		}
	}
	for i := range a.groups {
		if a.groups[i] != b.groups[i] {
			return false
		}
	}
	return true
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := generate(w, 7), generate(w, 7)
		if !sameInputs(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		if sameInputs(a, generate(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
}

func TestServedMix(t *testing.T) {
	in := generate("served_mixed_zipf", 3)
	var counts [3]int
	s := in.callers[0]
	for i := 0; i < s.len(); i++ {
		counts[s.kind(i)]++
	}
	for k, want := range map[byte]float64{opGet: 0.90, opPut: smzPutFrac, opScan: smzScanFrac} {
		if got := float64(counts[k]) / float64(s.len()); got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share = %.3f, want %.2f", opNames[k], got, want)
		}
	}
}

func TestKeysAndValues(t *testing.T) {
	key := make([]byte, keyLen)
	for _, id := range []uint64{0, 1, 15, 16, 799_999, 1<<20 - 1} {
		putKey(key, id)
		if got, ok := keyID(key); !ok || got != id {
			t.Errorf("keyID(putKey(%d)) = %d, %v", id, got, ok)
		}
	}
	// Keys sort as their ids, and a group's 16 ids share a 15-byte prefix.
	a, b := make([]byte, keyLen), make([]byte, keyLen)
	putKey(a, 0x1f)
	putKey(b, 0x20)
	if bytes.Compare(a, b) >= 0 {
		t.Errorf("%s does not sort before %s", a, b)
	}
	putKey(a, 0x20)
	putKey(b, 0x2f)
	if !bytes.Equal(a[:keyLen-1], b[:keyLen-1]) {
		t.Errorf("%s and %s are in one group but differ in prefix", a, b)
	}

	v := newValues(1)
	val := make([]byte, valueLen)
	putKey(key, 42)
	v.fill(val, key)
	if !v.check(key, val) {
		t.Fatal("a value fails its own check")
	}
	other := make([]byte, keyLen)
	putKey(other, 43)
	if v.check(other, val) {
		t.Error("the value of one key passes the check of another")
	}
	val[valueLen-1] ^= 1
	if v.check(key, val) {
		t.Error("a corrupted value passes the check")
	}
}
