//===- support/Status.cpp - Structured diagnostics --------------------------===//

#include "support/Status.h"

#include "support/Json.h"
#include "support/StrUtil.h"

using namespace gdp;
using namespace gdp::support;
using gdp::support::json::escape;

const char *gdp::support::statusCodeName(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::UsageError:
    return "usage_error";
  case StatusCode::InputError:
    return "input_error";
  case StatusCode::ParseError:
    return "parse_error";
  case StatusCode::VerifyError:
    return "verify_error";
  case StatusCode::ProfileError:
    return "profile_error";
  case StatusCode::Infeasible:
    return "infeasible";
  case StatusCode::BudgetExhausted:
    return "budget_exhausted";
  case StatusCode::TooLarge:
    return "too_large";
  case StatusCode::FaultInjected:
    return "fault_injected";
  case StatusCode::TaskFailed:
    return "task_failed";
  case StatusCode::Cancelled:
    return "cancelled";
  case StatusCode::Internal:
    return "internal";
  }
  return "<bad>";
}

const char *gdp::support::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "<bad>";
}

Diag &Diag::with(std::string Key, std::string Value) {
  Context.emplace_back(std::move(Key), std::move(Value));
  return *this;
}

Diag &Diag::with(std::string Key, uint64_t Value) {
  return with(std::move(Key),
              formatStr("%llu", static_cast<unsigned long long>(Value)));
}

Diag &Diag::with(std::string Key, int64_t Value) {
  return with(std::move(Key),
              formatStr("%lld", static_cast<long long>(Value)));
}

Diag &Diag::with(std::string Key, double Value) {
  return with(std::move(Key), formatStr("%.6g", Value));
}

std::string Diag::render() const {
  std::string Out = severityName(Sev);
  Out += ": ";
  if (!Site.empty()) {
    Out += Site;
    Out += ": ";
  }
  Out += Message;
  if (!Context.empty()) {
    Out += " [";
    for (size_t I = 0; I != Context.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Context[I].first;
      Out += "=";
      Out += Context[I].second;
    }
    Out += "]";
  }
  return Out;
}

std::string Diag::toJson() const {
  std::string Out = formatStr(
      "{\"code\": \"%s\", \"severity\": \"%s\", \"site\": \"%s\", "
      "\"message\": \"%s\"",
      statusCodeName(Code), severityName(Sev), escape(Site).c_str(),
      escape(Message).c_str());
  if (!Context.empty()) {
    Out += ", \"context\": {";
    for (size_t I = 0; I != Context.size(); ++I) {
      if (I)
        Out += ", ";
      Out += formatStr("\"%s\": \"%s\"", escape(Context[I].first).c_str(),
                       escape(Context[I].second).c_str());
    }
    Out += "}";
  }
  Out += "}";
  return Out;
}

Diag gdp::support::errorDiag(StatusCode Code, std::string Site,
                             std::string Message) {
  return Diag(Code, Severity::Error, std::move(Site), std::move(Message));
}

Diag gdp::support::warnDiag(StatusCode Code, std::string Site,
                            std::string Message) {
  return Diag(Code, Severity::Warning, std::move(Site), std::move(Message));
}

std::string gdp::support::diagsToJson(const std::vector<Diag> &Diags) {
  std::string Out = "[";
  for (size_t I = 0; I != Diags.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Diags[I].toJson();
  }
  Out += "]";
  return Out;
}

std::string gdp::support::renderDiags(const std::vector<Diag> &Diags) {
  std::vector<std::string> Lines;
  Lines.reserve(Diags.size());
  for (const Diag &D : Diags)
    Lines.push_back(D.render());
  return join(Lines, "\n");
}

const Diag *gdp::support::firstError(const std::vector<Diag> &Diags) {
  for (const Diag &D : Diags)
    if (D.Sev == Severity::Error)
      return &D;
  return nullptr;
}
