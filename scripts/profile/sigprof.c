/* SIGPROF stack sampler, preloaded into an unmodified program:
 *   gcc -O1 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so prog args...   # sigprof.<pid>.out per process, in the cwd
 * Every 3 ms of process CPU time it records the stack; at exit it writes the raw
 * addresses and /proc/self/maps for symbolize.py. One sampled thread: a second
 * thread's samples would race on `samples`. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

enum { DEPTH = 64, MAX_SAMPLES = 1 << 16, INTERVAL_US = 3000 };
static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int samples;

static void on_prof(int sig) {
    (void)sig;
    if (samples < MAX_SAMPLES) {
        depth[samples] = backtrace(frames[samples], DEPTH);
        samples++;
    }
}

static void set_timer(long interval_us) {
    struct itimerval it = {{0, interval_us}, {0, interval_us}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* makes glibc load the unwinder now, not inside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    set_timer(INTERVAL_US);
}

__attribute__((destructor)) static void stop(void) {
    set_timer(0);
    char name[64];
    snprintf(name, sizeof name, "sigprof.%d.out", (int)getpid());
    FILE *out = fopen(name, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int i = 0; i < samples; i++) {
        for (int j = 0; j < depth[i]; j++) fprintf(out, "%p ", frames[i][j]);
        fputc('\n', out);
    }
    fputs("== maps\n", out);
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(maps);
    fclose(out);
}
