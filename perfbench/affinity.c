/* CPU affinity, which the OCaml Unix library does not offer. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* The CPUs this process may run on, in increasing order; empty if the
   kernel will not say. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  for (int c = 0; c < CPU_SETSIZE; c++) n += CPU_ISSET(c, &set) ? 1 : 0;
  if (n == 0) CAMLreturn(Atom(0));
  cpus = caml_alloc(n, 0);
  n = 0;
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) Store_field(cpus, n++, Val_int(c));
  CAMLreturn(cpus);
}

/* Confine this process to one CPU if the kernel lets it; a process it
   does not let runs wherever the kernel puts it, which only costs
   steadiness. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  int c = Int_val(cpu);
  if (c >= 0 && c < CPU_SETSIZE) {
    CPU_ZERO(&set);
    CPU_SET(c, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }
  return Val_unit;
}
