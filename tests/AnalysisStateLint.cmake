# Fails if a C++ file under DIR declares process-wide mutable state: a
# std mutex of any kind, a thread_local, or a static object that is not
# const/constexpr (function-local, class or file scope). The effect
# analysis is a pure function of one procedure and one flow state; what a
# query needs lives in its AnalysisCtx, so src/analysis needs none of
# these.
#
# A line counts as a static object when it starts with `static` (after
# indentation), the next word is not const/constexpr, and no `name(`
# comes before an `=`: that last test tells a static function from an
# object, so an object initialized with parentheses, `static T X(1);`,
# is taken for a function. Comments after `//` are ignored.
#
# Usage:
#   cmake -DDIR=<directory> -P AnalysisStateLint.cmake
if(NOT DEFINED DIR)
  message(FATAL_ERROR "AnalysisStateLint.cmake needs -DDIR")
endif()
get_filename_component(DIR "${DIR}" ABSOLUTE)
file(GLOB_RECURSE Files "${DIR}/*.h" "${DIR}/*.cpp")
if(NOT Files)
  message(FATAL_ERROR "no C++ files under ${DIR}")
endif()
set(Found 0)
foreach(F IN LISTS Files)
  file(READ "${F}" Content)
  # Characters that CMake's list splitting treats specially.
  string(REPLACE ";" "," Content "${Content}")
  string(REPLACE "[" "(" Content "${Content}")
  string(REPLACE "]" ")" Content "${Content}")
  string(REPLACE "\\" "/" Content "${Content}")
  string(REPLACE "\n" ";" Lines "${Content}")
  set(LineNo 0)
  foreach(Line IN LISTS Lines)
    math(EXPR LineNo "${LineNo} + 1")
    string(REGEX REPLACE "//.*$" "" Code "${Line}")
    set(Why "")
    if(Code MATCHES "std::(recursive_|shared_|timed_|recursive_timed_|shared_timed_)?mutex")
      set(Why "a std mutex")
    elseif(Code MATCHES "(^|[^A-Za-z0-9_])thread_local([^A-Za-z0-9_]|$)")
      set(Why "a thread_local")
    elseif(Code MATCHES "^[ \t]*static[ \t]"
           AND NOT Code MATCHES "^[ \t]*static[ \t]+(const|constexpr)[ \t]"
           AND NOT Code MATCHES "^[ \t]*static[ \t][^=(]*[A-Za-z0-9_][ \t]*\\(")
      set(Why "a static object that is not const")
    endif()
    if(Why)
      file(RELATIVE_PATH Rel "${DIR}" "${F}")
      message(STATUS "${Rel}:${LineNo}: ${Why}: ${Line}")
      math(EXPR Found "${Found} + 1")
    endif()
  endforeach()
endforeach()
if(Found GREATER 0)
  message(FATAL_ERROR "${Found} process-wide state declaration(s) under ${DIR}")
endif()
list(LENGTH Files N)
message(STATUS "no process-wide state in ${N} files under ${DIR}")
