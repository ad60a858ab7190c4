package mantra_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonImportsNoSimulator walks the daemon's non-test imports
// within the module and fails naming any package of the simulated
// network — the routers, their protocols, the topology and the SNMP
// agent — that it reaches, and the package that imports it. The
// simulator is the substrate the daemon is tested against, not part of
// what it runs.
func TestDaemonImportsNoSimulator(t *testing.T) {
	const module = "repro"
	forbidden := map[string]bool{}
	for _, p := range []string{"router", "dvmrp", "pim", "msdp", "mbgp", "igmp", "sim", "snmp", "netsim", "topo", "forwarding"} {
		forbidden[module+"/internal/"+p] = true
	}
	importer := map[string]string{module + "/cmd/mantra": ""}
	for queue := []string{module + "/cmd/mantra"}; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		pkg, err := build.ImportDir(filepath.FromSlash("."+strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := importer[imp]; seen || imp != module && !strings.HasPrefix(imp, module+"/") {
				continue
			}
			importer[imp] = path
			queue = append(queue, imp)
			if forbidden[imp] {
				t.Errorf("cmd/mantra reaches %s, through %s", imp, path)
			}
		}
	}
}
