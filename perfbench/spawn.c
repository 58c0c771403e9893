/* Process launcher for perfbench/run.py.
 *
 *   spawn TIMEOUT_S OUT ERR PROG [ARGS...]
 *
 * Runs PROG with stdout to OUT and stderr to ERR, waits for it, and prints
 * "exit_code wall_ns cpu_us maxrss_kib" for that one process. A child still
 * running after TIMEOUT_S seconds is killed and reported with exit code
 * 128 + SIGKILL.
 *
 * Forking from this small launcher rather than from run.py keeps the Python
 * interpreter's resident set out of the child's peak RSS: Linux carries a
 * process's pre-exec high-water mark into ru_maxrss.
 *
 * Build: cc -O2 -o spawn spawn.c
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static volatile sig_atomic_t child = 0; /* pid_t is an int on Linux */

static void on_alarm(int sig) {
  (void)sig;
  if (child > 0) kill(child, SIGKILL);
}

static int64_t now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int main(int argc, char** argv) {
  if (argc < 5) {
    fprintf(stderr, "usage: spawn TIMEOUT_S OUT ERR PROG [ARGS...]\n");
    return 2;
  }
  const unsigned timeout_s = (unsigned)strtoul(argv[1], NULL, 10);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_alarm;
  sigaction(SIGALRM, &sa, NULL);

  const int64_t start = now_ns();
  const pid_t pid = fork();
  if (pid < 0) {
    perror("fork");
    return 1;
  }
  if (pid == 0) {
    const int out = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(argv[3], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || dup2(out, 1) < 0 || dup2(err, 2) < 0) _exit(127);
    close(out);
    close(err);
    execv(argv[4], &argv[4]);
    _exit(127);
  }
  child = pid;
  alarm(timeout_s);

  int status = 0;
  struct rusage ru;
  memset(&ru, 0, sizeof ru);
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      perror("wait4");
      return 1;
    }
  }
  const int64_t wall = now_ns() - start;
  alarm(0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  const int64_t cpu_us = (int64_t)(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000 +
                         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  printf("%d %lld %lld %ld\n", code, (long long)wall, (long long)cpu_us, ru.ru_maxrss);
  return 0;
}
