// Runs the experiments: every figure, ablation, and extra, one command.
// `run_all --quick --jobs 4 --out bench_quick.jsonl` is the CI profile.
// A positional argument that is an experiment's name runs that experiment
// alone (`run_all fig_fabric`); any other argument selects by name
// substring (`run_all fig09 fig12`, `run_all fig17` for both Fig. 17
// panels). See docs/HARNESS.md.
#include "bench/experiments.h"
#include "harness/cli.h"

int main(int argc, char** argv) {
  return orbit::harness::HarnessMain(orbit::benchexp::AllExperiments(), argc,
                                     argv);
}
