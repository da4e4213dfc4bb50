//===- support/Process.h - Child processes without a shell -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way the project starts a child process: an argv handed to
/// posix_spawnp, never a shell command line, so paths may contain spaces
/// and no argument is ever reinterpreted. The backends use it for `cc`
/// and their harness binaries, the figure benchmarks for their harnesses,
/// and exocc-soak for its one-shot exocc-batch runs.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SUPPORT_PROCESS_H
#define EXO_SUPPORT_PROCESS_H

#include <string>
#include <vector>

namespace exo {
namespace support {

/// One child process: its argv (argv[0] is looked up on PATH unless it
/// contains a slash), the file its stderr is written to and, when
/// OutPath is set, the file its stdout is written to (otherwise it
/// inherits the parent's stdout).
struct Command {
  std::vector<std::string> Argv;
  std::string ErrPath;
  std::string OutPath = {};
};

/// Starts every command at once (posix_spawnp) and reaps each (waitpid).
/// Returns their exit statuses in order; -1 for a command that could not
/// start (the reason is written to its ErrPath) or died by a signal.
std::vector<int> runCommands(const std::vector<Command> &Cmds);

} // namespace support
} // namespace exo

#endif // EXO_SUPPORT_PROCESS_H
