/* Machine-speed probe for perfbench/run.py.
 *
 *   probe STEPS
 *
 * Runs STEPS steps of a small discrete-event loop and prints the seconds
 * they took. Each step pops the earliest of 131072 pending events from a
 * binary heap, updates one or two random words of a 16 MiB state array and
 * pushes a follow-up event: the same mix of heap operations and scattered
 * memory access as the simulator's event loop, over a similar working set.
 *
 * On a shared machine, other tenants slow the simulator by up to 2x for
 * minutes at a time, and they slow this loop in step with it. run.py divides
 * the simulator's wall time by this loop's time from the same run, which
 * cancels much of that slowdown. The loop never changes with the
 * repository's code, so a change to the simulator moves only the numerator.
 *
 * Build: cc -O2 -o probe probe.c
 */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

typedef struct {
  uint64_t t;
  uint32_t id;
} Event;

static Event* heap;
static size_t heap_size;

static void push(Event e) {
  size_t i = heap_size++;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap[parent].t <= e.t) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = e;
}

static Event pop(void) {
  const Event top = heap[0];
  const Event last = heap[--heap_size];
  size_t i = 0;
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= heap_size) break;
    if (child + 1 < heap_size && heap[child + 1].t < heap[child].t) child++;
    if (last.t <= heap[child].t) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = last;
  return top;
}

static uint64_t xorshift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

static double now_s(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + ts.tv_nsec * 1e-9;
}

int main(int argc, char** argv) {
  if (argc != 2 || atol(argv[1]) <= 0) {
    fprintf(stderr, "usage: probe STEPS\n");
    return 2;
  }
  const long steps = atol(argv[1]);
  const size_t pending = (size_t)1 << 17;
  const size_t words = (size_t)1 << 21; /* 16 MiB of state */
  heap = malloc((pending + 1) * sizeof *heap);
  uint64_t* state = calloc(words, sizeof *state);
  if (heap == NULL || state == NULL) return 1;
  uint64_t x = 88172645463325252ull;
  for (size_t i = 0; i < pending; i++) {
    const uint64_t r = xorshift(&x);
    push((Event){r % 100000, (uint32_t)(r >> 32)});
  }

  const double start = now_s();
  for (long k = 0; k < steps; k++) {
    const Event e = pop();
    const size_t j = (e.id * 2654435761u) & (words - 1);
    state[j] += e.t;
    const uint64_t r = xorshift(&x);
    if (state[j] & 1) state[(j + r) & (words - 1)] ^= r;
    push((Event){e.t + 1 + r % 1000, (uint32_t)(r >> 40) ^ e.id});
  }
  const double elapsed = now_s() - start;

  /* Printing a word of the state keeps the loop from being optimised away. */
  printf("%.6f %u\n", elapsed, (unsigned)(state[7] & 1));
  return 0;
}
