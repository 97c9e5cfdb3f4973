// Architecture-adaptivity demo: run the optimizer for the same set of
// matrices on all three modeled platforms and show how the detected
// bottlenecks — and therefore the chosen optimizations — change with the
// architecture. This is the paper's core claim: there is no
// one-size-fits-all SpMV optimization.
#include <iostream>

#include "sparta.hpp"

int main() {
  using namespace sparta;

  const std::vector<std::string> picks{"consph", "poisson3Db", "rajat30", "webbase-1M",
                                       "human_gene1"};
  std::cout << "how the same matrix classifies across architectures:\n\n";

  Table table{{"matrix", "KNC", "KNL", "Broadwell"}};
  for (const auto& name : picks) {
    const CsrMatrix matrix = gen::make_suite_matrix(name);
    std::vector<std::string> row{name};
    for (const auto& machine : paper_platforms()) {
      const Autotuner tuner{machine};
      const auto plan = tuner.tune(matrix);
      const double baseline = sim::simulate_spmv(matrix, machine, sim::KernelConfig{}).run.gflops;
      row.push_back(to_string(plan.classes) + " -> " + to_string(plan.optimizations) + " (" +
                    Table::num(plan.gflops / baseline, 2) + "x)");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nreading: classes -> jointly applied optimizations (speedup over the\n"
               "baseline CSR kernel on that platform). Xeon-Phi-like platforms expose\n"
               "latency and imbalance bottlenecks that the Broadwell-like machine, with\n"
               "its deep out-of-order cores and big LLC, does not.\n";
  return 0;
}
