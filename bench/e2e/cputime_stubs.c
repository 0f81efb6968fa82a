/* CPU time of the benchmark process, in nanoseconds.  The benchmark runs
   on one domain and never blocks, so this is its host time less the
   time the kernel (or, on a guest with steal-time accounting, the
   hypervisor) gave to something else. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double e2e_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value e2e_cpu_ns_byte(value unit)
{
  return caml_copy_double(e2e_cpu_ns(unit));
}
