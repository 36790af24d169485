package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strconv"
)

// Every value the benchmark stores says which key it belongs to, who wrote
// it and which of that writer's writes it is, under a CRC, so that any Get
// anywhere can be checked without knowing what ran before it:
//
//	[0:8)   FNV-1a of the key
//	[8:12)  writer
//	[12:20) version (the writer's own counter)
//	[20:24) CRC-32C of [0:20)
//	[24:)   the writer's fixed body pattern
const headerBytes = 24

// Writers: 0 preloads, 1..clients are the load threads, writerRecovery
// writes the fixed Puts of the recovery phase.
const (
	writerPreload  = 0
	writerRecovery = clients + 1
	writers        = clients + 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// patterns[w] is the body writer w fills its values with.
var patterns = func() [writers][]byte {
	var p [writers][]byte
	for w := range p {
		p[w] = make([]byte, 4096)
		for i := range p[w] {
			p[w][i] = byte(i*7 + w*31 + 1)
		}
	}
	return p
}()

func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// keyIndex recovers the record index from a ycsb.Key.
func keyIndex(key string) int {
	i, err := strconv.Atoi(key[len("user"):])
	if err != nil {
		panic("benchmark: not a ycsb key: " + key)
	}
	return i
}

// stamp fills val (whose length is the workload's value size) for key.
func stamp(val []byte, key string, writer uint32, version uint64) {
	binary.LittleEndian.PutUint64(val[0:], keyHash(key))
	binary.LittleEndian.PutUint32(val[8:], writer)
	binary.LittleEndian.PutUint64(val[12:], version)
	binary.LittleEndian.PutUint32(val[20:], crc32.Checksum(val[:20], castagnoli))
	copy(val[headerBytes:], patterns[writer])
}

// check reports whether val is a value some writer stamped for key, of the
// workload's size, and returns who and which.
func check(val []byte, key string, size int) (writer uint32, version uint64, ok bool) {
	if len(val) != size || size < headerBytes {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(val[20:]) != crc32.Checksum(val[:20], castagnoli) {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint64(val[0:]) != keyHash(key) {
		return 0, 0, false
	}
	writer = binary.LittleEndian.Uint32(val[8:])
	if writer >= writers {
		return 0, 0, false
	}
	version = binary.LittleEndian.Uint64(val[12:])
	body := val[headerBytes:]
	return writer, version, bytes.Equal(body, patterns[writer][:len(body)])
}
