/**
 * @file
 * cable_spawn: runs one command and reports the wall time and peak
 * resident set size of that command alone.
 *
 *   cable_spawn <result-file> <timeout-s> <program> [args...]
 *
 * Linux carries a process's peak RSS across fork and exec, so a
 * command forked straight from the benchmark's Python driver would
 * report at least the driver's own footprint. Forking from this small
 * program keeps that floor to a few megabytes. The command inherits
 * stdin, stdout, stderr and the working directory; it is killed after
 * <timeout-s> seconds.
 *
 * Writes "<exit code> <wall ns> <peak RSS kB>" to <result-file>; a
 * command killed by a signal reports 128 + the signal number. Exits 0
 * once the command has ended, 2 on bad arguments and 1 when the
 * command could not be started or waited for.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

volatile std::sig_atomic_t g_child = 0;

void
killChild(int)
{
    if (g_child > 0)
        kill(static_cast<pid_t>(g_child), SIGKILL);
}

long long
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: cable_spawn <result-file> "
                             "<timeout-s> <program> [args...]\n");
        return 2;
    }
    char *end = nullptr;
    unsigned long timeout = std::strtoul(argv[2], &end, 10);
    if (*end != '\0' || timeout == 0) {
        std::fprintf(stderr, "cable_spawn: bad timeout '%s'\n", argv[2]);
        return 2;
    }

    long long t0 = monotonicNs();
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("cable_spawn: fork");
        return 1;
    }
    if (pid == 0) {
        execvp(argv[3], argv + 3);
        std::perror("cable_spawn: exec");
        _exit(127);
    }
    g_child = pid;
    std::signal(SIGALRM, killChild);
    alarm(static_cast<unsigned>(timeout));

    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("cable_spawn: wait4");
            return 1;
        }
    }
    long long wall = monotonicNs() - t0;
    alarm(0);

    int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
    FILE *f = std::fopen(argv[1], "w");
    if (!f) {
        std::perror("cable_spawn: result file");
        return 1;
    }
    std::fprintf(f, "%d %lld %ld\n", code, wall, usage.ru_maxrss);
    return std::fclose(f) == 0 ? 0 : 1;
}
