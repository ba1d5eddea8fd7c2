package verify

import (
	"fmt"

	"verifyio/internal/semantics"
	"verifyio/internal/trace"
)

// Diagnosis automates the root-cause analysis the paper performs by hand in
// §V-B/§V-C: from a race's call chains and happens-before context, decide
// who is responsible (application vs library) and what fix the consistency
// model asks for.
type Diagnosis struct {
	Race     Race
	Category Category
	// Responsible names the layer the fix belongs to: "application" or a
	// library name ("pnetcdf", "hdf5", ...).
	Responsible string
	// Suggestion is the model-specific remediation.
	Suggestion string
}

// Category classifies a race.
type Category int

// Race categories.
const (
	// UnorderedConflict: no happens-before order in either direction —
	// a race even under POSIX (the §V-B findings). Almost always
	// application-level misuse.
	UnorderedConflict Category = iota
	// MissingSyncConstruct: the accesses are ordered (temporal order via
	// MPI), but the model's minimum synchronization construct is absent —
	// the Fig. 6 pattern.
	MissingSyncConstruct
	// LibraryInternalConflict: the conflicting operation pair was created
	// by library internals the application cannot see (e.g. enddef fill
	// vs an aggregated collective write — the Fig. 5 finding).
	LibraryInternalConflict
)

var categoryNames = map[Category]string{
	UnorderedConflict:       "unordered-conflict",
	MissingSyncConstruct:    "missing-sync-construct",
	LibraryInternalConflict: "library-internal-conflict",
}

func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// libraryInternalFuncs are high-level calls whose file accesses are decided
// inside the library (layout fills, metadata flushes, aggregated
// collectives) — a conflict rooted here is not attributable to the caller.
var libraryInternalFuncs = map[string]bool{
	"ncmpi_enddef": true, "ncmpi__enddef": true, "nc_enddef": true,
	"ncmpi_wait": true, "ncmpi_wait_all": true,
	"ncmpi_fill_var_rec": true,
}

// Diagnose analyzes the report's detailed races — a function of the report
// alone. The model must be the one the report was verified against.
func (r *Report) Diagnose(model semantics.Model) []Diagnosis {
	out := make([]Diagnosis, 0, len(r.Races))
	for _, race := range r.Races {
		out = append(out, diagnoseOne(race, model))
	}
	return out
}

func diagnoseOne(race Race, model semantics.Model) Diagnosis {
	d := Diagnosis{Race: race}

	rootX, layerX := chainRoot(race.ChainX)
	rootY, layerY := chainRoot(race.ChainY)

	switch {
	case !race.ordered:
		d.Category = UnorderedConflict
		d.Responsible = "application"
		if rootX == rootY && race.X.Write && race.Y.Write {
			// The parallel5/null_args/test_erange signature: the same
			// high-level call writing the same data from every rank.
			d.Suggestion = fmt.Sprintf(
				"multiple processes call %s on overlapping data with no ordering; "+
					"write distinct regions (or call from a single rank), or order "+
					"the calls with MPI synchronization", rootX)
		} else {
			d.Suggestion = fmt.Sprintf(
				"no happens-before order between %s (rank %d) and %s (rank %d); "+
					"add MPI synchronization (a barrier or point-to-point message) "+
					"between the conflicting accesses", rootX, race.X.Ref.Rank, rootY, race.Y.Ref.Rank)
		}
	case libraryInternalFuncs[rootX] || libraryInternalFuncs[rootY] || rootDecidedByLibrary(race):
		d.Category = LibraryInternalConflict
		d.Responsible = libraryOf(layerX, layerY)
		d.Suggestion = fmt.Sprintf(
			"the conflict between %s and %s is created by library-internal I/O "+
				"(fills, aggregation, or request completion) that the application "+
				"cannot see; the library must synchronize internally (e.g. the "+
				"sync/barrier/sync safeguard PnetCDF applies on non-POSIX systems)",
			rootX, rootY)
	default:
		d.Category = MissingSyncConstruct
		d.Responsible = "application"
		d.Suggestion = constructAdvice(model, rootX, rootY)
	}
	return d
}

// constructAdvice renders the model-specific fix for an ordered-but-
// unsynchronized pair.
func constructAdvice(model semantics.Model, rootX, rootY string) string {
	switch model.ID {
	case semantics.Commit:
		return fmt.Sprintf("the accesses are ordered but no commit separates them; "+
			"issue fsync after %s before %s runs", rootX, rootY)
	case semantics.Session:
		return fmt.Sprintf("the accesses are ordered but there is no close-to-open "+
			"session boundary; close the file after %s and (re)open it before %s", rootX, rootY)
	case semantics.MPIIO:
		return fmt.Sprintf("the accesses are ordered only by a barrier; MPI-IO "+
			"semantics requires the sync-barrier-sync construct — call "+
			"MPI_File_sync (H5Fflush / ncmpi_sync) after %s and again before %s", rootX, rootY)
	default:
		return "insert the model's minimum synchronization construct between the accesses"
	}
}

// chainRoot returns the outermost call of a chain and its layer name.
func chainRoot(chain []string) (fn, layer string) {
	if len(chain) == 0 {
		return "?", "application"
	}
	fr, err := trace.ParseFrame(chain[0])
	if err != nil {
		return chain[0], "application"
	}
	return fr.Func, fr.Layer.String()
}

// rootDecidedByLibrary recognizes conflicts where the writing rank is not
// the calling rank's data region — the collective-buffering signature: the
// two sides are *different* high-level calls of the same library, both
// writes, overlapping.
func rootDecidedByLibrary(race Race) bool {
	rootX, layerX := chainRoot(race.ChainX)
	rootY, layerY := chainRoot(race.ChainY)
	return race.X.Write && race.Y.Write &&
		layerX == layerY && layerX != "posix" && layerX != "mpi-io" &&
		rootX != rootY
}

// libraryOf picks the responsible library name from two chain layers.
func libraryOf(layerX, layerY string) string {
	for _, l := range []string{layerX, layerY} {
		switch l {
		case "pnetcdf", "netcdf", "hdf5", "mpi-io":
			return l
		}
	}
	return "library"
}
