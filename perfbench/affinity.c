/* Pin the calling thread to one CPU (Linux sched_setaffinity), so that
   the benchmark can move its main thread to the least contended of the
   CPUs it may use (see stats.ml). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs this process may run on, as an int array. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int i, n = 0, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    CAMLreturn(Atom(0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  res = n == 0 ? Atom(0) : caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, k++, Val_int(i));
  CAMLreturn(res);
}

/* Pin the calling thread to [cpu]; false if the kernel refused. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
}
