// Package artifact persists prepare-stage artifacts (core.Prepared: the CSR
// probabilistic graph plus its fully-enumerated triangle index) as a
// versioned binary file that a loader can map back into memory without
// copying — so a graph whose 4-clique enumeration took minutes cold-starts
// in milliseconds across process restarts.
//
// # Format
//
// Artifacts are little-endian throughout. A fixed 64-byte header (magic,
// format version, element counts, checksums) is followed by a section table
// and then the sections themselves, each 8-byte aligned:
//
//	offset  size      contents
//	0       64        header
//	64      7×32      section table (kind, element width, offset, length, CRC per section)
//	288     —         sections, in table order, each padded to an 8-byte boundary
//
// The seven sections of format version 1, in fixed order:
//
//	kind  element  count        contents
//	1     int32    n+1          CSR adjacency offsets
//	2     int32    2m           CSR neighbor ids (sorted per vertex)
//	3     float64  2m           per-directed-edge probabilities (parallel to kind 2)
//	4     int32    3T           triangle vertices (A,B,C per triangle, id order)
//	5     int32    T+1          completion-list CSR offsets
//	6     int32    Σ|comps|     completion vertices (flat, sorted per triangle)
//	7     int32    T            triangle ids permuted into lexicographic order
//
// Section 7 is the index's lookup order (TriangleIndex.ByTri), written as
// built, so a loaded index answers TriangleIndex.ID by the same binary
// search as an enumerated one without sorting anything.
//
// # Zero-copy loading
//
// Every section is a plain array of 4- or 8-byte little-endian elements at
// an 8-byte-aligned offset, so on little-endian platforms with mmap support
// Load aliases the mapping directly as the []int32/[]float64/[]Triangle
// backing arrays of the returned *core.Prepared — no per-element work, no
// copies. Only two derived structures are materialized: the [][]int32
// completion-list headers (pointing into the mapped flat array) and the
// canonical edge cache, both linear passes. The mapping stays mapped for as
// long as the Prepared is reachable and is released by a finalizer
// afterwards. On big-endian hosts or platforms without mmap, Load falls back
// to reading the file and decoding it element by element — same result,
// one copy.
//
// # Integrity
//
// The header carries a CRC of the section table, each table entry a CRC of
// its section's bytes, and the header's whole-file checksum covers the
// per-section CRCs, so any bit flip anywhere is detected. After the
// checksums, validation runs in two tiers. The structural tier — linear
// passes every Load and Decode performs — proves the arrays are safe for the
// kernels to index: offsets monotone and terminated, vertex ids in range,
// adjacency sorted and loop-free, probabilities in (0,1], triangle vertices
// ordered, completion ids in range, and the lookup permutation a genuine
// lexicographic permutation. The cross-reference tier — LoadVerified only —
// adds the consistency checks that relate sections to each other: edge
// symmetry with matching probabilities, triangle edges present in the
// adjacency, completion lists sorted, disjoint from their triangle, and
// closing 4-cliques. Checksums pin a file to exactly what Save
// wrote, so Load suffices for self-written artifacts and stays an order of
// magnitude faster than re-enumeration; LoadVerified is for files of unknown
// provenance, where a consistent-looking artifact could still lie about its
// graph. Every failure — truncation, corruption, a crafted file — is a typed
// ErrBadArtifact (or ErrArtifactVersion for a format the reader does not
// speak), never a panic, and sizes are cross-checked against the file size
// before anything is allocated, so a forged header cannot force an OOM.
//
// Compatibility policy: readers accept exactly the format versions they
// know (currently 1); a newer on-disk version fails with ErrArtifactVersion
// rather than being half-read. Any layout change bumps FormatVersion.
package artifact

import (
	"errors"
	"hash/crc32"
)

// ErrBadArtifact is the typed failure for any malformed artifact — wrong
// magic, truncation, checksum mismatch, inconsistent section table, or an
// invariant violation in the decoded arrays. Match with errors.Is.
var ErrBadArtifact = errors.New("artifact: malformed artifact")

// ErrArtifactVersion is returned for a structurally plausible artifact whose
// format version this reader does not speak. Match with errors.Is.
var ErrArtifactVersion = errors.New("artifact: unsupported format version")

// FormatVersion is the on-disk format version this package writes and the
// only one it reads.
const FormatVersion = 1

// magic identifies an artifact file: "PBNUCART" (probabilistic nucleus
// artifact), 8 bytes so the header stays aligned.
var magic = [8]byte{'P', 'B', 'N', 'U', 'C', 'A', 'R', 'T'}

// Header layout (all little-endian):
//
//	0   magic      [8]byte
//	8   version    uint32
//	12  sections   uint32 (must be numSections)
//	16  fileSize   uint64 (total file bytes; rejects truncation up front)
//	24  tableCRC   uint32 (CRC-32C of the section table bytes)
//	28  fileCRC    uint32 (CRC-32C over the per-section CRCs, in order)
//	32  nVerts     uint64
//	40  nAdj       uint64 (directed edges, 2m)
//	48  nTris      uint64
//	56  reserved   uint64 (zero)
const (
	headerSize = 64
	entrySize  = 32 // kind u32, elem u32, off u64, len u64, crc u32, pad u32
)

// Section kinds of format version 1, in required table order.
const (
	secOffs     = 1 + iota // CSR offsets, int32, nVerts+1
	secAdj                 // CSR adjacency, int32, nAdj
	secProb                // edge probabilities, float64, nAdj
	secTris                // triangle vertices, int32, 3·nTris
	secCompOffs            // completion CSR offsets, int32, nTris+1
	secCompFlat            // completion vertices, int32, compOffs[nTris]
	secTriSort             // lexicographic id permutation, int32, nTris

	numSections = secTriSort - secOffs + 1
)

// elemSize returns the element width of a section kind.
func elemSize(kind uint32) uint32 {
	if kind == secProb {
		return 8
	}
	return 4
}

// castagnoli is the CRC-32C polynomial table; hardware-accelerated on the
// platforms that matter, so checksumming runs at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tableOffset/sectionsOffset locate the section table and the first section.
const (
	tableOffset    = headerSize
	sectionsOffset = tableOffset + numSections*entrySize
)

// align8 rounds n up to the next multiple of 8 — every section starts on an
// 8-byte boundary so float64 (and mmap-aliased) views are always aligned.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }
