package main

import (
	"encoding/binary"
	"math/rand"
)

// Every key is 16 bytes and every value 100 bytes. A key is the
// zero-padded lowercase hex of a 64-bit id, so key order is id order and
// the 15-byte prefix of a key names a group of 16 consecutive ids: the
// unit every prefix scan reads.
const (
	keyLen    = 16
	valueLen  = 100
	groupBits = 4 // ids per prefix group = 1 << groupBits
	entryLen  = keyLen + valueLen
)

// Op kinds of a pre-generated stream.
const (
	opGet byte = iota
	opPut
	opScan
)

const hexDigits = "0123456789abcdef"

// putKey writes the key of id into dst[:keyLen].
func putKey(dst []byte, id uint64) {
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = hexDigits[id&15]
		id >>= 4
	}
}

// keyID parses a key back to its id; ok is false for a malformed key.
func keyID(key []byte) (id uint64, ok bool) {
	if len(key) != keyLen {
		return 0, false
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

// splitmix64 is the generator behind values and key scrambling: cheap
// and identical on every platform and Go version.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// values is the value function. value(key) is the key itself followed
// by 84 filler bytes chosen by a hash of the key from a pool generated
// from the seed. Embedding the key catches a value returned for the
// wrong key exactly; the pool keeps assembly to one copy, so the timed
// loops do no generation work.
type values struct {
	salt uint64
	pool []byte // poolSize fillers of valueLen-keyLen bytes each
}

const (
	poolSize  = 1 << 12
	fillerLen = valueLen - keyLen
)

func newValues(seed int64) *values {
	v := &values{salt: splitmix64(uint64(seed) ^ 0x5eed), pool: make([]byte, poolSize*fillerLen)}
	x := v.salt
	for i := 0; i+8 <= len(v.pool); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(v.pool[i:], x)
	}
	return v
}

func (v *values) filler(key []byte) []byte {
	h := splitmix64(binary.LittleEndian.Uint64(key[:8])^v.salt) ^ binary.LittleEndian.Uint64(key[8:])
	i := int(splitmix64(h) % poolSize)
	return v.pool[i*fillerLen : (i+1)*fillerLen]
}

// fill writes value(key) into dst[:valueLen].
func (v *values) fill(dst, key []byte) {
	copy(dst, key)
	copy(dst[keyLen:valueLen], v.filler(key))
}

// check reports whether got is exactly value(key).
func (v *values) check(key, got []byte) bool {
	if len(got) != valueLen || string(got[:keyLen]) != string(key) {
		return false
	}
	return string(got[keyLen:]) == string(v.filler(key))
}

// stream is one caller's pre-generated operations: op i reads key
// keys[i*keyLen:(i+1)*keyLen] with kind kinds[i] (nil means all gets).
// A timed loop that outruns the stream starts it over.
type stream struct {
	keys  []byte
	kinds []byte
}

func newStream(n int, withKinds bool) *stream {
	s := &stream{keys: make([]byte, n*keyLen)}
	if withKinds {
		s.kinds = make([]byte, n)
	}
	return s
}

func (s *stream) len() int { return len(s.keys) / keyLen }

func (s *stream) key(i int) []byte { return s.keys[i*keyLen : (i+1)*keyLen] }

func (s *stream) kind(i int) byte {
	if s.kinds == nil {
		return opGet
	}
	return s.kinds[i]
}

// keyList turns ids into a stream of their keys, in the given order.
func keyList(ids []uint64) *stream {
	s := newStream(len(ids), false)
	for i, id := range ids {
		putKey(s.key(i), id)
	}
	return s
}

// inputs is everything one run feeds the program, all derived from the
// seed before any timer starts.
type inputs struct {
	seed    int64
	vals    *values
	preload *stream   // keys loaded during set-up, in load order
	warm    *stream   // keys read once after set-up to warm the cache
	callers []*stream // one timed stream per caller
	groups  []uint64  // prefix groups scanned by the check phase
}

// Workload shapes.
const (
	// point_read_large: 400k present keys at even ids; odd ids are the
	// absent keys, which lie inside the fence range of every run.
	prlKeys       = 400_000
	prlAbsentFrac = 0.10
	// durable_ingest: writes draw uniformly from 1 Mi ids on top of a
	// base of 100k keys loaded during set-up.
	diKeySpace = 1 << 20
	diBaseKeys = 100_000
	// served_mixed_zipf: 50k dense ids, zipfian s=1.2, 90/5/5 mix.
	smzKeys     = 50_000
	smzZipfS    = 1.2
	smzPutFrac  = 0.05
	smzScanFrac = 0.05
	// Callers (goroutines or connections) driving each workload.
	callers = 2
	// checkScans is how many prefix groups the check phase scans.
	checkScans = 200_000
)

// streamLen is the per-caller stream length for each workload. The
// point_read_large callers wrap theirs a few times in a 20-second run,
// which repeats no cache state: the store is 5.5 times the cache.
var streamLen = map[string]int{
	"point_read_large":  1 << 19,
	"durable_ingest":    1 << 18,
	"served_mixed_zipf": 1 << 19,
}

// generate builds the inputs of workload w from seed.
func generate(w string, seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, vals: newValues(seed)}
	n := streamLen[w]
	switch w {
	case "point_read_large":
		perm := r.Perm(prlKeys)
		ids := make([]uint64, prlKeys)
		for i, p := range perm {
			ids[i] = 2 * uint64(p)
		}
		in.preload = keyList(ids)
		pick := func() uint64 {
			id := 2 * uint64(r.Intn(prlKeys))
			if r.Float64() < prlAbsentFrac {
				id++
			}
			return id
		}
		in.warm = newStream(1<<17, false)
		for i := 0; i < in.warm.len(); i++ {
			putKey(in.warm.key(i), pick())
		}
		for c := 0; c < callers; c++ {
			s := newStream(n, false)
			for i := 0; i < n; i++ {
				putKey(s.key(i), pick())
			}
			in.callers = append(in.callers, s)
		}
		in.groups = randomGroups(r, 2*prlKeys>>groupBits)
	case "durable_ingest":
		ids := make([]uint64, diBaseKeys)
		for i := range ids {
			ids[i] = uint64(r.Intn(diKeySpace))
		}
		in.preload = keyList(ids)
		for c := 0; c < callers; c++ {
			s := newStream(n, false)
			for i := 0; i < n; i++ {
				putKey(s.key(i), uint64(r.Intn(diKeySpace)))
			}
			in.callers = append(in.callers, s)
		}
		in.groups = randomGroups(r, diKeySpace>>groupBits)
	case "served_mixed_zipf":
		// Zipf ranks map through a permutation so hot keys spread over
		// the key space instead of sharing blocks and prefix groups.
		perm := r.Perm(smzKeys)
		ids := make([]uint64, smzKeys)
		for i, p := range perm {
			ids[i] = uint64(p)
		}
		in.preload = keyList(ids)
		in.warm = in.preload
		z := rand.NewZipf(r, smzZipfS, 1, smzKeys-1)
		for c := 0; c < callers; c++ {
			s := newStream(n, true)
			for i := 0; i < n; i++ {
				putKey(s.key(i), ids[z.Uint64()])
				switch f := r.Float64(); {
				case f < smzPutFrac:
					s.kinds[i] = opPut
				case f < smzPutFrac+smzScanFrac:
					s.kinds[i] = opScan
				default:
					s.kinds[i] = opGet
				}
			}
			in.callers = append(in.callers, s)
		}
	}
	return in
}

func randomGroups(r *rand.Rand, numGroups int) []uint64 {
	g := make([]uint64, checkScans)
	for i := range g {
		g[i] = uint64(r.Intn(numGroups))
	}
	return g
}
