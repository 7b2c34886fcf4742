// Package all registers every built-in format scanner. Binaries and
// tests that want the full set blank-import this package; anything that
// imports internal/format alone sees an empty registry (and the attack
// falls back to the pure AES hunt), which keeps narrow tools like
// encbench free of format baggage.
package all

import (
	_ "coldboot/internal/format/chacha20"
	_ "coldboot/internal/format/luks2"
)
