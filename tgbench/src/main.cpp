// tgbench: the benchmark's load client and traced replay, one binary.
//   tgbench client --workload W --seed S --port P ...
//   tgbench trace  --workload W --seed S --answers FILE ...
#include <cstdio>
#include <cstring>

namespace tgbench {
int client_main(int argc, char** argv);
int trace_main(int argc, char** argv);
}  // namespace tgbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    return tgbench::client_main(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    return tgbench::trace_main(argc - 1, argv + 1);
  }
  std::fprintf(stderr, "usage: tgbench client|trace --workload W --seed S ...\n");
  return 2;
}
