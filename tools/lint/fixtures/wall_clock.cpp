// Fixture: every line here must trip the wall-clock rule.
#include <chrono>
#include <ctime>

long bad_now() {
  auto t = std::chrono::system_clock::now().time_since_epoch().count();
  auto s = std::chrono::steady_clock::now().time_since_epoch().count();
  long c = time(nullptr);
  unsigned aux = 0;
  long r = __rdtsc() + __rdtscp(&aux) + _rdtsc();
  return t + s + c + r;
}
