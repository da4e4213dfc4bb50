//===- support/StringExtras.cpp -------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/StringExtras.h"

#include <cassert>
#include <cctype>
#include <cstdio>

using namespace exo;

std::vector<std::string> exo::splitString(const std::string &S, char Sep) {
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : S) {
    if (C == Sep) {
      Parts.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  Parts.push_back(Cur);
  return Parts;
}

std::string exo::joinStrings(const std::vector<std::string> &Parts,
                             const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string exo::trimString(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

bool exo::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

std::string exo::replaceAll(std::string S, const std::string &From,
                            const std::string &To) {
  assert(!From.empty() && "replaceAll with empty needle");
  size_t Pos = 0;
  while ((Pos = S.find(From, Pos)) != std::string::npos) {
    S.replace(Pos, From.size(), To);
    Pos += To.size();
  }
  return S;
}

unsigned exo::countLines(const std::string &S) {
  if (S.empty())
    return 0;
  unsigned Lines = 0;
  for (char C : S)
    if (C == '\n')
      ++Lines;
  if (S.back() != '\n')
    ++Lines;
  return Lines;
}

std::string exo::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}
