// Command gen regenerates the checked-in fuzz seed corpora under
// internal/trace/testdata/fuzz. The seeds are a curated slice of the
// fault-injection corpus — one representative per mutation class — so a
// fresh checkout's `go test` exercises the interesting decoder paths and a
// real `-fuzz` run starts from structure-aware inputs instead of zero.
//
// Run from the repository root:
//
//	go run ./internal/trace/faultinject/gen
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"verifyio/internal/trace"
	"verifyio/internal/trace/faultinject"
)

func seedTrace() *trace.Trace {
	tr := trace.New(2)
	tr.Meta["program"] = "corpus-seed"
	tr.Meta["fs.mode"] = "posix"
	tick := []int64{0, 0}
	add := func(rank int, layer trace.Layer, fn string, chain []string, args ...string) {
		tick[rank] += 2
		tr.Append(trace.Record{
			Rank: rank, Func: fn, Layer: layer,
			Args: args, Tick: tick[rank], Ret: tick[rank] + 1,
			Ctx: trace.NewContext(chain, fmt.Sprintf("site%d", rank)),
		})
	}
	for rank := 0; rank < 2; rank++ {
		add(rank, trace.LayerMPIIO, "MPI_File_open", nil, "comm0", "f.bin", "rw")
		add(rank, trace.LayerPOSIX, "open", []string{"mpi-io:MPI_File_open@m"}, "f.bin", "rw", "3")
		for i := 0; i < 4; i++ {
			add(rank, trace.LayerPOSIX, "pwrite",
				[]string{"mpi-io:MPI_File_write_at@m"}, "3", "8", fmt.Sprint(8*i))
		}
		add(rank, trace.LayerPOSIX, "close", nil, "3")
	}
	if err := tr.Validate(); err != nil {
		log.Fatalf("seed trace invalid: %v", err)
	}
	return tr
}

func encode(tr *trace.Trace, compress bool) []byte {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr, trace.EncodeOptions{Compress: compress}); err != nil {
		log.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// writeSeed writes one corpus entry in the `go test fuzz v1` format; each
// argument becomes one []byte line.
func writeSeed(dir, name string, args ...[]byte) {
	var b strings.Builder
	b.WriteString("go test fuzz v1\n")
	for _, a := range args {
		fmt.Fprintf(&b, "[]byte(%q)\n", a)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Println(path)
}

// pick returns the first corpus case whose name has the given prefix.
func pick(cases []faultinject.Case, prefix string) faultinject.Case {
	for _, c := range cases {
		if strings.HasPrefix(c.Name, prefix) {
			return c
		}
	}
	log.Fatalf("no corpus case with prefix %q", prefix)
	return faultinject.Case{}
}

func main() {
	root := "internal/trace/testdata/fuzz"
	decodeDir := filepath.Join(root, "FuzzDecode")
	dirDir := filepath.Join(root, "FuzzReadDir")
	for _, d := range []string{decodeDir, dirDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	tr := seedTrace()
	plain := encode(tr, false)
	packed := encode(tr, true)

	writeSeed(decodeDir, "seed-plain", plain)
	writeSeed(decodeDir, "seed-compressed", packed)
	writeSeed(decodeDir, "seed-header-only", []byte("VIOT\x01\x00"))

	corpus := faultinject.Corpus(plain)
	writeSeed(decodeDir, "seed-bomb-depth", pick(corpus, "bomb@depth").Data)
	writeSeed(decodeDir, "seed-bomb-strings", pick(corpus, "bomb@string-count").Data)
	writeSeed(decodeDir, "seed-bomb-strindex", pick(corpus, "bomb@strindex").Data)
	writeSeed(decodeDir, "seed-truncated-records", pick(corpus, "truncate@record").Data)
	writeSeed(decodeDir, "seed-truncated-strings", pick(corpus, "truncate@string-table").Data)
	writeSeed(decodeDir, "seed-bitflip", pick(corpus, "bitflip@7").Data)
	writeSeed(decodeDir, "seed-compressed-truncated", packed[:len(packed)-3])

	// Directory seeds: two rank files per entry.
	tmp, err := os.MkdirTemp("", "viot-corpus")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	if err := trace.WriteDir(tmp, tr, trace.EncodeOptions{Compress: false}); err != nil {
		log.Fatal(err)
	}
	var ranks [2][]byte
	for i := range ranks {
		ranks[i], err = os.ReadFile(filepath.Join(tmp, fmt.Sprintf("rank-%d.viot", i)))
		if err != nil {
			log.Fatal(err)
		}
	}
	writeSeed(dirDir, "seed-intact", ranks[0], ranks[1])
	writeSeed(dirDir, "seed-rank1-truncated", ranks[0], ranks[1][:len(ranks[1])/2])
	writeSeed(dirDir, "seed-rank0-empty", nil, ranks[1])
	writeSeed(dirDir, "seed-rank1-bombed", ranks[0], pick(faultinject.Corpus(ranks[1]), "bomb@depth").Data)
}
