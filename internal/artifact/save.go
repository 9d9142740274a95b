package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"probnucleus/internal/core"
)

// Encode serializes pre into an artifact image (see the package doc for the
// layout). The image is self-contained and position-independent: Decode —
// or a mapped Load of the same bytes written to a file — reconstructs an
// equivalent Prepared.
func Encode(pre *core.Prepared) []byte {
	offs, adj := pre.Graph().G.CSR()
	prob := pre.Graph().Probs()
	ti := pre.Index()
	tris := ti.Tris
	nTris := uint64(len(tris))

	// Flatten the completion lists into CSR form.
	compOffs := make([]int32, nTris+1)
	total := 0
	for i, zs := range ti.Comps {
		total += len(zs)
		compOffs[i+1] = int32(total)
	}
	byTri := ti.ByTri()

	// Lay the sections out back to back, 8-byte aligned.
	counts := [numSections]uint64{
		uint64(len(offs)), uint64(len(adj)), uint64(len(prob)),
		3 * nTris, nTris + 1, uint64(total), nTris,
	}
	var offsets [numSections]uint64
	pos := uint64(sectionsOffset)
	for i, c := range counts {
		offsets[i] = pos
		pos = align8(pos + c*uint64(elemSize(uint32(secOffs+i))))
	}
	buf := make([]byte, pos)

	// Section payloads.
	le := binary.LittleEndian
	p := buf[offsets[secOffs-1]:]
	for i, v := range offs {
		le.PutUint32(p[4*i:], uint32(v))
	}
	p = buf[offsets[secAdj-1]:]
	for i, v := range adj {
		le.PutUint32(p[4*i:], uint32(v))
	}
	p = buf[offsets[secProb-1]:]
	for i, v := range prob {
		le.PutUint64(p[8*i:], math.Float64bits(v))
	}
	p = buf[offsets[secTris-1]:]
	for i, t := range tris {
		le.PutUint32(p[12*i:], uint32(t.A))
		le.PutUint32(p[12*i+4:], uint32(t.B))
		le.PutUint32(p[12*i+8:], uint32(t.C))
	}
	p = buf[offsets[secCompOffs-1]:]
	for i, v := range compOffs {
		le.PutUint32(p[4*i:], uint32(v))
	}
	p = buf[offsets[secCompFlat-1]:]
	i := 0
	for _, zs := range ti.Comps {
		for _, z := range zs {
			le.PutUint32(p[4*i:], uint32(z))
			i++
		}
	}
	p = buf[offsets[secTriSort-1]:]
	for i, v := range byTri {
		le.PutUint32(p[4*i:], uint32(v))
	}

	// Section table, with per-section CRCs, and the whole-file CRC over them.
	fileCRC := crc32.New(castagnoli)
	var crcBytes [4]byte
	for i := 0; i < numSections; i++ {
		e := buf[tableOffset+i*entrySize:]
		kind := uint32(secOffs + i)
		length := counts[i] * uint64(elemSize(kind))
		crc := crc32.Checksum(buf[offsets[i]:offsets[i]+length], castagnoli)
		le.PutUint32(e[0:], kind)
		le.PutUint32(e[4:], elemSize(kind))
		le.PutUint64(e[8:], offsets[i])
		le.PutUint64(e[16:], length)
		le.PutUint32(e[24:], crc)
		le.PutUint32(crcBytes[:], crc)
		fileCRC.Write(crcBytes[:])
	}

	// Header.
	copy(buf[0:8], magic[:])
	le.PutUint32(buf[8:], FormatVersion)
	le.PutUint32(buf[12:], numSections)
	le.PutUint64(buf[16:], uint64(len(buf)))
	le.PutUint32(buf[24:], crc32.Checksum(buf[tableOffset:sectionsOffset], castagnoli))
	le.PutUint32(buf[28:], fileCRC.Sum32())
	le.PutUint64(buf[32:], uint64(pre.Graph().NumVertices()))
	le.PutUint64(buf[40:], uint64(len(adj)))
	le.PutUint64(buf[48:], nTris)
	return buf
}

// Save writes pre's artifact to path atomically — the image lands under a
// temporary name in the destination directory and is renamed into place, so
// a crash mid-write can never leave a half-written file under path — and
// returns the number of bytes written.
func Save(path string, pre *core.Prepared) (int64, error) {
	buf := Encode(pre)
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("artifact: save %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("artifact: save %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("artifact: save %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("artifact: save %s: %w", path, err)
	}
	return int64(len(buf)), nil
}
