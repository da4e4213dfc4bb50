//===- support/Process.cpp -------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Process.h"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace exo;
using namespace exo::support;

std::vector<int> exo::support::runCommands(const std::vector<Command> &Cmds) {
  std::vector<pid_t> Pids(Cmds.size(), -1);
  for (size_t I = 0; I < Cmds.size(); ++I) {
    std::vector<char *> Argv;
    for (const std::string &A : Cmds[I].Argv)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    if (!Cmds[I].OutPath.empty())
      posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO,
                                       Cmds[I].OutPath.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO,
                                     Cmds[I].ErrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Rc = posix_spawnp(&Pids[I], Argv[0], &Actions, nullptr, Argv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Pids[I] = -1;
      std::ofstream(Cmds[I].ErrPath)
          << "cannot start " << Argv[0] << ": " << std::strerror(Rc) << "\n";
    }
  }
  std::vector<int> Status(Cmds.size(), -1);
  for (size_t I = 0; I < Cmds.size(); ++I) {
    if (Pids[I] < 0)
      continue;
    int Raw = 0;
    pid_t W;
    do
      W = waitpid(Pids[I], &Raw, 0);
    while (W < 0 && errno == EINTR);
    if (W == Pids[I] && WIFEXITED(Raw))
      Status[I] = WEXITSTATUS(Raw);
  }
  return Status;
}
