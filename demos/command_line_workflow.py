"""
The command-line surface
========================

Everything in the demos above is reachable without writing Python: csv
in, json/csv out, fully deterministic for a fixed seed.  This script
drives the CLI programmatically and shows each artifact.
"""

import json
import pathlib
import tempfile

from spimax.cli import run_cli
from spimax.dataio import export_unit_csv
from spimax.simulate import ScenarioConfig, generate_scenario

work = pathlib.Path(tempfile.mkdtemp(prefix="spimax-demo-"))

# 1. write a dataset in the unit-level csv format: cluster,y,x1,...
config = ScenarioConfig(D=12, n_d=5, master_seed=77)
data, _, _ = generate_scenario(config, replicate=0)
data_csv = work / "units.csv"
data_csv.write_text(export_unit_csv(data))
print("data file header:", data_csv.read_text().splitlines()[0])

# 2. fit: variance components and per-cluster predictions as json
run_cli(["fit", "--model", "nerm", "--data", str(data_csv),
         "--out", str(work / "fit.json")])
fit = json.loads((work / "fit.json").read_text())
print(f"fitted: sigma2_e={fit['sigma2_e']:.3f}, sigma2_u={fit['sigma2_u']:.3f}, "
      f"{fit['D']} clusters")

# 3. simultaneous intervals via the bootstrap, reproducible by seed
run_cli(["spi", "--model", "nerm", "--data", str(data_csv),
         "--method", "bs", "--alpha", "0.05", "--B", "1000", "--seed", "1",
         "--out", str(work / "spi.json")])
spi = json.loads((work / "spi.json").read_text())
first = spi["intervals"][0]
print(f"critical value {spi['critical_value']:.3f}; cluster {first['cluster']}: "
      f"[{first['lower']:.3f}, {first['upper']:.3f}]")

# 4. step-down testing against a null file (one value per cluster)
h_csv = work / "h.csv"
h_csv.write_text("\n".join("1.5" for _ in range(12)) + "\n")
run_cli(["test", "--model", "nerm", "--data", str(data_csv),
         "--h", str(h_csv), "--method", "bs", "--B", "1000", "--seed", "1",
         "--stepdown", "--out", str(work / "test.json")])
test = json.loads((work / "test.json").read_text())
print(f"step-down rejected {test['n_rejected']} clusters: {test['rejected']}")

# 5. a miniature simulation study straight to csv
run_cli(["simulate", "--preset", "table1-row", "--D", "15",
         "--sigma-e2", "0.5", "--sigma-u2", "1", "--I", "20", "--B", "100",
         "--seed", "7", "--out", str(work / "sim.csv")])
print("\nsimulation criteria:")
for line in (work / "sim.csv").read_text().splitlines()[:7]:
    print("  " + line)

print(f"\nall artifacts in {work}")
