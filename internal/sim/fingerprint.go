package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// fingerprintVersion is folded into every fingerprint so that cached
// results written by an incompatible simulator revision never alias a
// current configuration. Bump it whenever a change makes old results
// wrong for the same Config (new semantic field, changed defaults, a
// modelling fix that shifts metrics).
// v2: Config gained Controller/ControllerModel (the pluggable feedback
// controller seam); the new fields are folded into the hash, so a cached
// "fdp" result can never alias a "tree" run of the same base config.
const fingerprintVersion = "fdpsim-fp-v2"

// Fingerprint returns a stable content hash of the configuration's
// semantic fields: two configurations share a fingerprint exactly when a
// completed run of one is a valid result for the other. The Tracer does
// not affect results and is excluded. Custom-prefetcher runs are not
// fingerprintable (ok=false): the prefetcher instance is opaque, stateful,
// and a pointer's address can alias a different instance after reuse.
//
// The returned string is lowercase hex, safe for use as a file name; the
// harness memo and the service result store both key on it.
func Fingerprint(cfg Config) (fp string, ok bool) {
	if cfg.Prefetcher == PrefCustom {
		return "", false
	}
	cfg.Custom = nil
	cfg.Tracer = nil
	sum := sha256.Sum256([]byte(fingerprintVersion + "\x00" + fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(sum[:]), true
}

// PrefetcherKinds lists the prefetchers selectable by name. PrefCustom is
// excluded: it requires a caller-supplied Config.Custom instance and so
// cannot be chosen from a CLI flag or a job request.
func PrefetcherKinds() []PrefetcherKind {
	return []PrefetcherKind{
		PrefNone, PrefStream, PrefGHB, PrefStride, PrefNextLine, PrefDahlgren, PrefHybrid,
	}
}
