package lib

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
)

// Hash maps a comparable key to a well-mixed 64-bit value for data
// exchange. Fast paths cover the key types the workloads use; anything
// else falls back to a gob+FNV encoding (correct, slower). The fast paths
// switch on a pointer to the key, which fits an interface word as is:
// switching on the key itself would box every integer key of 256 or more.
func Hash[K comparable](k K) uint64 {
	switch v := any(&k).(type) {
	case *int:
		return mix64(uint64(*v))
	case *int32:
		return mix64(uint64(*v))
	case *int64:
		return mix64(uint64(*v))
	case *uint32:
		return mix64(uint64(*v))
	case *uint64:
		return mix64(*v)
	case *string:
		return mix64(fnv64a(*v))
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(k); err != nil {
			panic(fmt.Sprintf("lib: unhashable key %T: %v", k, err))
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return mix64(h.Sum64())
	}
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing so that modular
// reduction over worker counts spreads sequential keys evenly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64a is FNV-1a over a string's bytes, equal to hash/fnv's New64a sum
// without its allocations.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashPair hashes a Pair by its key, the exchange function for keyed
// operators.
func HashPair[K comparable, V any](p Pair[K, V]) uint64 { return Hash(p.Key) }
