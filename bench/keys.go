package main

import (
	"bytes"
	"encoding/binary"
)

// valueLen is the size of every stored value.
const valueLen = 64

// keyLen is the size of every key: 'k' and 16 hex digits.
const keyLen = 17

// mix64 is the SplitMix64 finalizer: a bijection, so distinct addresses
// give distinct keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// putKey writes the key for hash h into dst[:keyLen] without allocating.
func putKey(dst []byte, h uint64) {
	const hex = "0123456789abcdef"
	dst[0] = 'k'
	for i := 0; i < 16; i++ {
		dst[1+i] = hex[(h>>(60-4*uint(i)))&15]
	}
}

// putValue writes the value every key with hash h holds into dst[:valueLen].
func putValue(dst []byte, h uint64) {
	for j := 0; j < valueLen/8; j++ {
		binary.LittleEndian.PutUint64(dst[8*j:], mix64(h+uint64(j)))
	}
}

// valueOK reports whether v is the value of the key with hash h.
func valueOK(v []byte, h uint64) bool {
	var want [valueLen]byte
	putValue(want[:], h)
	return bytes.Equal(v, want[:])
}
