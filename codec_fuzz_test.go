package dstore

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord: a standby decodes record payloads that arrive over the
// network, so decodeRecord must refuse — never panic on — any payload, and
// one it accepts must be exactly what encodeRecord lays down for the sub-ops
// it decoded (a put-shaped record with its zero physical-logging pad).
// Seeds are every opcode's encoding, transaction write sets among them.
func FuzzDecodeRecord(f *testing.F) {
	put := func(op uint16, n int) subOp {
		u := subOp{op: op, name: []byte("user0000000042"), size: uint64(n) * blockSize, slot: 77}
		for i := range n {
			u.blocks = append(u.blocks, uint64(1000+i))
			u.sums = append(u.sums, uint32(0xc0ffee00+i))
		}
		return u
	}
	seeds := []struct {
		w   writeSet
		pad int
	}{
		{writeSet{op: opPut, subs: []subOp{put(opPut, 1)}}, 0},
		{writeSet{op: opPut, subs: []subOp{put(opPut, 3)}}, physicalImageBytes},
		{writeSet{op: opCreate, subs: []subOp{put(opCreate, 2)}}, 0},
		{writeSet{op: opTxnBegin, subs: []subOp{put(opTxnBegin, 1)}}, 0},
		{writeSet{op: opExtend, subs: []subOp{{op: opExtend, size: 9000, slot: 3, blocks: []uint64{5, 6, 7}}}}, 0},
		{writeSet{op: opDelete, subs: []subOp{{op: opDelete}}}, 0},
		{writeSet{op: opTxnAbort, subs: []subOp{{op: opTxnAbort}}}, 0},
		{writeSet{op: opNoop, subs: []subOp{{op: opNoop}}}, 0},
		{writeSet{op: opInval, subs: []subOp{{op: opInval, idxs: []int{0, 3, 1}}}}, 0},
		{writeSet{op: opRemap, subs: []subOp{{op: opRemap, idxs: []int{2}, blocks: []uint64{12}, sums: []uint32{0xabcdef01}}}}, 0},
		{writeSet{op: opTxnCommit, txnid: 0x1122334455667788, subs: []subOp{
			put(opPut, 1), {op: opDelete, name: []byte("gone")}, put(opPut, 2),
		}}, 0},
		{writeSet{op: opTxnCommit, txnid: 1}, 0},
	}
	for _, sd := range seeds {
		f.Add(sd.w.op, []byte("obj"), bytes.Clone(encodeRecord(&sd.w, sd.pad)))
	}
	f.Add(uint16(0), []byte("obj"), []byte{})
	f.Add(uint16(len(opTable)), []byte("obj"), []byte{1, 2, 3})
	f.Add(opPut, []byte("obj"), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, op uint16, name, payload []byte) {
		txnid, subs, err := decodeRecord(op, name, payload, nil)
		if err != nil {
			return
		}
		pad := 0
		if putShaped(op) {
			pad = len(payload) - allocLen(len(subs[0].blocks))
		}
		w := writeSet{op: op, txnid: txnid, subs: subs}
		if got := encodeRecord(&w, pad); !bytes.Equal(got, payload) {
			t.Fatalf("op %d: payload %x decodes to %d sub-ops that encode as %x", op, payload, len(subs), got)
		}
	})
}
